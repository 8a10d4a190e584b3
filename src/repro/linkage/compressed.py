"""Tuple-compressed record linkage.

All three linkage attacks compare records only through their
quasi-identifier *value tuples*: the distance, agreement pattern and
rank compatibility of a pair ``(i, j)`` depend solely on the category
tuples of original record ``i`` and masked record ``j``.  With three
protected attributes, a 1000-record file typically holds just a few
hundred distinct tuples, so linkage over the ``u_o x u_m`` distinct-tuple
grid plus per-record lookups is several times cheaper than the naive
``n x n`` pair sweep — and produces *identical* results, which the test
suite asserts against the reference implementations in
:mod:`repro.linkage.dbrl` / :mod:`~repro.linkage.prl` /
:mod:`~repro.linkage.rsrl`.

The paper singles out fitness evaluation as the dominant cost of the
whole approach (its §3.2 timing paragraph and §4 "major drawback").
This module answers it for the linkage grids, and the closed-form PRL
fit of :mod:`repro.linkage.prl` for the Fellegi–Sunter model; the
measures in :mod:`repro.metrics.linkage_risk` route through both.

An :class:`OriginalIndex` holds everything that depends only on the
original file and the attribute set — the distinct original tuples, the
per-record inverse, per-tuple record counts, and the rank-position
tables.  Each linkage measure builds its own index when it is bound to
the original and builds one :class:`CompressedPair` per candidate from
it.  Linkage measures hold no process-wide or per-thread state, so a
score depends only on (original, candidate, measure configuration),
never on what the process scored before.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes, require_masked_pair
from repro.exceptions import LinkageError
from repro.linkage.distance import rank_positions


def _encode_tuples(codes: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Mixed-radix encoding of each row's category tuple into one int64."""
    n_cells = 1
    for size in sizes:
        n_cells *= int(size)
    if n_cells > 2**62:
        raise LinkageError("attribute domains too large for tuple encoding")
    flat = np.zeros(codes.shape[0], dtype=np.int64)
    for column in range(codes.shape[1]):
        flat = flat * sizes[column] + codes[:, column]
    return flat


def _decode_tuples(keys: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`_encode_tuples`: int64 keys back to code tuples."""
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
    carry each tuple, and the rank-position table of every attribute.
    The GA evaluates thousands of candidates against one original, so
    each linkage measure computes this once, when it is bound, instead of
    once per candidate: that removes a per-evaluation ``np.unique`` over
    the original plus one ``rank_positions`` pass per attribute per
    candidate.
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
        keys_original = _encode_tuples(original.codes[:, columns], self.sizes)
        unique_keys_o, self.inverse_original = np.unique(keys_original, return_inverse=True)
        self.unique_original = _decode_tuples(unique_keys_o, self.sizes)
        #: Records per distinct original tuple (PRL's pattern weighting).
        self.counts_original = np.bincount(self.inverse_original).astype(np.float64)
        #: Rank-position table per attribute, in ``columns`` order.
        self.rank_tables = [rank_positions(original, d.name) for d in self.domains]


class CompressedPair:
    """Distinct-tuple view of an (original, masked) file pair.

    The original side, and the attributes, come from ``index``.

    Attributes
    ----------
    unique_original / unique_masked:
        ``(u, a)`` matrices of the distinct quasi-identifier tuples.
    inverse_original / inverse_masked:
        Per-record index into the distinct-tuple matrices.
    counts_masked:
        Number of masked records carrying each distinct masked tuple.
    """

    def __init__(self, index: OriginalIndex, masked: CategoricalDataset) -> None:
        require_masked_pair(index.original, masked)
        self.index = index
        self.original = index.original
        self.masked = masked
        self.attributes = index.attributes
        self.columns = index.columns
        self.domains = index.domains
        sizes = index.sizes

        self.inverse_original = index.inverse_original
        self.unique_original = index.unique_original

        keys_masked = _encode_tuples(masked.codes[:, list(self.columns)], sizes)
        unique_keys_m, self.inverse_masked, counts = np.unique(
            keys_masked, return_inverse=True, return_counts=True
        )
        self.counts_masked = counts.astype(np.float64)
        self.unique_masked = _decode_tuples(unique_keys_m, sizes)

    @property
    def n_records(self) -> int:
        return self.original.n_records

    # -- grids over distinct tuples --------------------------------------

    def distance_grid(self) -> np.ndarray:
        """Mean categorical distance between distinct tuple pairs, (u_o, u_m)."""
        total = np.zeros((self.unique_original.shape[0], self.unique_masked.shape[0]))
        for slot, domain in enumerate(self.domains):
            x = self.unique_original[:, slot][:, None]
            y = self.unique_masked[:, slot][None, :]
            if domain.ordinal and domain.size > 1:
                total += np.abs(x - y) / (domain.size - 1)
            else:
                total += (x != y).astype(np.float64)
        total /= len(self.domains)
        return total

    def pattern_grid(self) -> np.ndarray:
        """Agreement-pattern index between distinct tuple pairs, (u_o, u_m)."""
        patterns = np.zeros(
            (self.unique_original.shape[0], self.unique_masked.shape[0]), dtype=np.int64
        )
        for bit in range(len(self.domains)):
            agree = self.unique_original[:, bit][:, None] == self.unique_masked[:, bit][None, :]
            patterns |= agree.astype(np.int64) << bit
        return patterns

    def rank_score_grid(self, window: float) -> np.ndarray:
        """Rank-compatible attribute count between distinct tuple pairs."""
        if not 0 < window <= 1:
            raise LinkageError(f"window must be in (0, 1], got {window}")
        scores = np.zeros(
            (self.unique_original.shape[0], self.unique_masked.shape[0]), dtype=np.int64
        )
        for slot in range(len(self.domains)):
            positions = self.index.rank_tables[slot]
            x = positions[self.unique_original[:, slot]][:, None]
            y = positions[self.unique_masked[:, slot]][None, :]
            scores += (np.abs(x - y) <= window).astype(np.int64)
        return scores

    # -- fractional-credit linkage over a grid ----------------------------

    def fractional_correct(self, grid: np.ndarray, best_is_max: bool) -> float:
        """Expected correct links for a per-tuple score grid.

        Mirrors :func:`repro.linkage.dbrl.fractional_correct_links` on the
        compressed representation: for each original record, the tie set
        size is the number of masked *records* (not tuples) achieving the
        row optimum, and the record scores ``1/ties`` if its own masked
        tuple is in the tie set.
        """
        best = grid.max(axis=1) if best_is_max else grid.min(axis=1)
        at_best = grid == best[:, None]
        tie_counts = at_best @ self.counts_masked
        hits = at_best[self.inverse_original, self.inverse_masked]
        credits = hits / tie_counts[self.inverse_original]
        return float(credits.sum())

    # -- the three attacks -------------------------------------------------

    def distance_linkage(self) -> float:
        """DBRL re-identification percentage (identical to the n^2 path)."""
        correct = self.fractional_correct(self.distance_grid(), best_is_max=False)
        return 100.0 * correct / self.n_records

    def pattern_counts(self, patterns: np.ndarray) -> np.ndarray:
        """Aggregated agreement-pattern counts over all record pairs.

        ``patterns`` is this pair's :meth:`pattern_grid`.
        """
        weights = np.outer(self.index.counts_original, self.counts_masked)
        return np.bincount(
            patterns.ravel(), weights=weights.ravel(), minlength=2 ** len(self.domains)
        )

    def probabilistic_linkage_from_weights(
        self, patterns: np.ndarray, pattern_weights: np.ndarray
    ) -> float:
        """PRL re-identification percentage under a fitted weight table.

        ``patterns`` is this pair's :meth:`pattern_grid`; the weights come
        from :func:`repro.linkage.prl.fit_fellegi_sunter_many` over the
        pair's :meth:`pattern_counts` (identical to the n^2 path).
        """
        correct = self.fractional_correct(pattern_weights[patterns], best_is_max=True)
        return 100.0 * correct / self.n_records

    def rank_linkage(self, window: float = 0.1) -> float:
        """RSRL re-identification percentage (identical to the n^2 path)."""
        grid = self.rank_score_grid(window).astype(np.float64)
        correct = self.fractional_correct(grid, best_is_max=True)
        return 100.0 * correct / self.n_records
