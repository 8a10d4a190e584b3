"""Distances and rank geometry for categorical record linkage.

Two notions of per-attribute dissimilarity are used across the library:

* **categorical distance** — 0/1 for nominal attributes, normalized code
  difference ``|x - y| / (k - 1)`` for ordinal attributes;
* **rank position** — each category is placed at the midpoint of its
  block in the cumulative frequency order of the *original* file, mapped
  to ``[0, 1]``.  Rank positions drive interval disclosure and
  rank-swapping record linkage, both of which reason about how far a
  masked value moved in rank terms.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes, require_masked_pair
from repro.exceptions import LinkageError


def attribute_distance_columns(
    original: CategoricalDataset, masked: CategoricalDataset, attributes: Sequence[str]
) -> np.ndarray:
    """Per-record, per-attribute distances, shape ``(n_records, n_attrs)``.

    Entry ``[r, a]`` is the categorical distance between the original and
    masked value of record ``r`` on attribute ``a``.
    """
    require_masked_pair(original, masked)
    columns = require_attributes(original, attributes)
    out = np.empty((original.n_records, len(columns)), dtype=np.float64)
    for slot, col in enumerate(columns):
        domain = original.schema.domain(col)
        x = original.column(col)
        y = masked.column(col)
        if domain.ordinal and domain.size > 1:
            out[:, slot] = np.abs(x - y) / (domain.size - 1)
        else:
            out[:, slot] = (x != y).astype(np.float64)
    return out


def cross_distance_matrix(
    original: CategoricalDataset, masked: CategoricalDataset, attributes: Sequence[str]
) -> np.ndarray:
    """All-pairs record distance matrix, shape ``(n_records, n_records)``.

    Entry ``[i, j]`` is the mean per-attribute categorical distance
    between original record ``i`` and masked record ``j``.
    """
    require_masked_pair(original, masked)
    columns = require_attributes(original, attributes)
    if not columns:
        raise LinkageError("cross_distance_matrix needs at least one attribute")
    n = original.n_records
    total = np.zeros((n, n), dtype=np.float64)
    for col in columns:
        domain = original.schema.domain(col)
        x = original.column(col)[:, None]
        y = masked.column(col)[None, :]
        if domain.ordinal and domain.size > 1:
            total += np.abs(x - y) / (domain.size - 1)
        else:
            total += (x != y).astype(np.float64)
    total /= len(columns)
    return total


def rank_positions(original: CategoricalDataset, attribute: str) -> np.ndarray:
    """Midpoint rank position in ``[0, 1]`` for every category of ``attribute``.

    Categories are ordered by code (the domain order; for ordinal domains
    this is the semantic order) and each category occupies a block of the
    cumulative frequency mass proportional to its count in the original
    file.  Zero-frequency categories collapse to the boundary point
    between their neighbours.
    """
    counts = original.value_counts(attribute).astype(np.float64)
    n = counts.sum()
    if n <= 0:
        raise LinkageError(f"attribute {attribute!r} has no records")
    cumulative = np.concatenate(([0.0], np.cumsum(counts)))
    midpoints = (cumulative[:-1] + cumulative[1:]) / 2.0
    return midpoints / n


def rank_position_columns(
    original: CategoricalDataset,
    dataset: CategoricalDataset,
    attributes: Sequence[str],
) -> np.ndarray:
    """Rank position of every cell of ``dataset``, using the original's geometry.

    Shape ``(n_records, n_attrs)``.  The original file defines the rank
    geometry (category block positions); ``dataset`` may be the original
    itself or a masked pair of it.
    """
    original.schema.require_compatible(dataset.schema)
    columns = require_attributes(original, attributes)
    out = np.empty((dataset.n_records, len(columns)), dtype=np.float64)
    for slot, col in enumerate(columns):
        positions = rank_positions(original, original.schema.domain(col).name)
        out[:, slot] = positions[dataset.column(col)]
    return out
