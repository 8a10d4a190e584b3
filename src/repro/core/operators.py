"""Genetic operators on protected files (paper §2.2).

Both operators act directly on category values — there is no binary
encoding — and only on the *protected attributes* (all individuals agree
with the original everywhere else, so touching other cells would only
leak unprotected data into the search).

* :func:`mutate` — pick one gene (a cell of a protected attribute) at
  random and replace it with a *different* valid category of that
  attribute's domain, drawn uniformly.
* :func:`crossover` — 2-point crossover at the category level: flatten
  the protected cells in record-major order, draw position ``s`` and a
  second position ``r`` uniformly from ``[s, L-1]``, and swap the cell
  range ``s..r`` (inclusive) between the two files, producing two
  offspring.  When ``s == r`` exactly one value is exchanged, matching
  the paper's special case.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes
from repro.exceptions import EvolutionError
from repro.utils.rng import as_generator


def mutate(
    dataset: CategoricalDataset,
    attributes: Sequence[str],
    seed: int | np.random.Generator | None = None,
    name: str | None = None,
) -> CategoricalDataset:
    """Return a copy of ``dataset`` with one protected cell resampled."""
    columns = require_attributes(dataset, attributes)
    if not columns:
        raise EvolutionError("mutation needs at least one protected attribute")
    rng = as_generator(seed)

    mutable_columns = [c for c in columns if dataset.schema.domain(c).size > 1]
    if not mutable_columns:
        raise EvolutionError("all protected attributes have single-category domains")
    column = mutable_columns[int(rng.integers(len(mutable_columns)))]
    row = int(rng.integers(dataset.n_records))
    domain = dataset.schema.domain(column)

    current = int(dataset.narrow_codes[row, column])
    # Uniform draw over the *other* categories: shift draws >= current up by one.
    draw = int(rng.integers(domain.size - 1))
    new_value = draw + 1 if draw >= current else draw

    codes = dataset.codes_copy()
    codes[row, column] = new_value
    return dataset.with_codes(codes, name=name if name is not None else dataset.name)


def crossover(
    first: CategoricalDataset,
    second: CategoricalDataset,
    attributes: Sequence[str],
    seed: int | np.random.Generator | None = None,
    names: tuple[str, str] | None = None,
) -> tuple[CategoricalDataset, CategoricalDataset]:
    """2-point category-level crossover; returns the two offspring."""
    first.require_compatible(second)
    columns = require_attributes(first, attributes)
    if not columns:
        raise EvolutionError("crossover needs at least one protected attribute")
    rng = as_generator(seed)

    length = first.n_records * len(columns)
    s = int(rng.integers(length))
    r = int(rng.integers(s, length))

    codes_a = first.codes_copy()
    codes_b = second.codes_copy()
    # Views of the protected cells, flattened record-major: position
    # p = row * len(columns) + slot.
    flat_a = codes_a[:, columns].reshape(-1)
    flat_b = codes_b[:, columns].reshape(-1)
    segment_a = flat_a[s : r + 1].copy()
    flat_a[s : r + 1] = flat_b[s : r + 1]
    flat_b[s : r + 1] = segment_a
    # reshape(-1) on a sliced column subset copies, so write back explicitly.
    codes_a[:, columns] = flat_a.reshape(first.n_records, len(columns))
    codes_b[:, columns] = flat_b.reshape(first.n_records, len(columns))

    name_a, name_b = names if names is not None else (first.name, second.name)
    return (
        first.with_codes(codes_a, name=name_a),
        second.with_codes(codes_b, name=name_b),
    )


def crossover_points(length: int, seed: int | np.random.Generator | None = None) -> tuple[int, int]:
    """Draw the paper's (s, r) crossover point pair for a chromosome of ``length``."""
    if length < 1:
        raise EvolutionError(f"chromosome length must be >= 1, got {length}")
    rng = as_generator(seed)
    s = int(rng.integers(length))
    r = int(rng.integers(s, length))
    return s, r
