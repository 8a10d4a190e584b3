"""Median-based microaggregation for categorical variables (Torra, 2004).

Microaggregation partitions the records into small groups of at least
``k`` similar records and replaces every value in a group by the group's
aggregate.  For categorical data (paper reference [7]) the aggregate is
the **median** category for ordinal attributes and the **mode** (most
frequent category, ties to the lowest code) for nominal attributes, and
similarity is value order for ordinal attributes / frequency order for
nominal ones.

Two partition strategies reproduce the many microaggregation variants of
the paper's initial populations:

* ``"univariate"`` — each protected attribute is sorted and partitioned
  independently (classical individual-ranking microaggregation);
* ``"joint"`` — records are sorted once by the tuple of all protected
  attributes (a fixed projection of the multivariate space) and the same
  partition masks every protected attribute, giving stronger but lossier
  protection.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import ProtectionError
from repro.methods.base import ProtectionMethod, registry


def _group_labels(n_records: int, k: int) -> np.ndarray:
    """Group index of every sorted position ``0..n_records-1``.

    All groups have exactly ``k`` members except the last, which absorbs
    the remainder (the standard fixed-size microaggregation heuristic:
    a remainder smaller than ``k`` may not form its own group), so there
    are ``max(1, n_records // k)`` groups.
    """
    n_groups = max(1, n_records // k)
    return np.minimum(np.arange(n_records) // k, n_groups - 1)


def _group_aggregates(
    codes: np.ndarray, groups: np.ndarray, n_groups: int, size: int, ordinal: bool
) -> np.ndarray:
    """Aggregate code of every group in one pass over the column.

    ``groups[i]`` is the group of ``codes[i]``; every group in
    ``range(n_groups)`` must be non-empty.  The aggregate is the modal
    code for nominal attributes (ties to the lowest code) and, for
    ordinal ones, the median truncated to a code exactly as
    ``int(np.median(group))`` would: the floor of the two middle codes'
    mean.  Both read a ``(n_groups, size)`` count table.
    """
    counts = np.bincount(groups * size + codes, minlength=n_groups * size).reshape(n_groups, size)
    if not ordinal:
        return counts.argmax(axis=1)
    # The code at 0-based rank r of a group is the number of codes whose
    # cumulative count is still <= r.
    cumulative = counts.cumsum(axis=1)
    members = cumulative[:, -1:]
    low = (cumulative <= (members - 1) // 2).sum(axis=1)
    high = (cumulative <= members // 2).sum(axis=1)
    return (low + high) // 2


class Microaggregation(ProtectionMethod):
    """Categorical microaggregation with minimum group size ``k``.

    Parameters
    ----------
    k:
        Minimum group size (>= 2); larger ``k`` means stronger masking.
    strategy:
        ``"univariate"`` or ``"joint"`` (see module docstring).
    sort_attributes:
        Only used by ``"joint"``: the attributes defining the sort order.
        Defaults to the attributes being protected, in protect() order.
    """

    method_name = "microaggregation"

    def __init__(self, k: int = 3, strategy: str = "univariate", sort_attributes: tuple[str, ...] | None = None) -> None:
        if k < 2:
            raise ProtectionError(f"microaggregation needs k >= 2, got {k}")
        if strategy not in ("univariate", "joint"):
            raise ProtectionError(f"unknown strategy {strategy!r}")
        self.k = k
        self.strategy = strategy
        self.sort_attributes = sort_attributes
        self._joint_order_cache: tuple[bytes, np.ndarray] | None = None

    def describe(self) -> str:
        return f"microagg(k={self.k},{self.strategy})"

    def _sort_order(self, dataset: CategoricalDataset, column: int) -> np.ndarray:
        """Record ordering that defines which records are 'similar'."""
        domain = dataset.schema.domain(column)
        if self.strategy == "univariate":
            values = dataset.column(column)
            if domain.ordinal:
                key = values
            else:
                # Nominal: order categories by frequency so that records
                # with similarly common values end up adjacent.
                counts = dataset.value_counts(column)
                key = counts[values] * (domain.size + 1) + values
            return np.argsort(key, kind="stable")
        # Joint: one shared ordering by the tuple of sort attributes,
        # cached on the file's exact narrow key.
        memo_key = dataset.memo_key()
        if self._joint_order_cache is not None and self._joint_order_cache[0] == memo_key:
            return self._joint_order_cache[1]
        attrs = self.sort_attributes
        if attrs is None:
            raise ProtectionError("joint microaggregation needs sort_attributes")
        key_columns = [dataset.column(name) for name in reversed(attrs)]
        order = np.lexsort(tuple(key_columns))
        self._joint_order_cache = (memo_key, order)
        return order

    def protect_column(self, dataset: CategoricalDataset, column: int, rng: np.random.Generator) -> np.ndarray:
        domain = dataset.schema.domain(column)
        order = self._sort_order(dataset, column)
        values = dataset.column(column)
        groups = _group_labels(dataset.n_records, self.k)
        aggregates = _group_aggregates(
            values[order], groups, int(groups.max(initial=0)) + 1, domain.size, domain.ordinal
        )
        masked = np.empty_like(values)
        masked[order] = aggregates[groups]
        return masked


registry.register(Microaggregation)
