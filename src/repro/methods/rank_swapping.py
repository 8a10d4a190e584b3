"""Rank swapping (Moore, 1996) adapted to categorical attributes.

Rank swapping sorts the values of one attribute, then swaps each value
with another value whose *rank* lies within a window of ``p`` percent of
the number of records.  Because swapping only permutes existing values,
the attribute's marginal distribution is preserved exactly — the
signature property of the method, and the one our property-based tests
pin down.

For nominal attributes the rank order is category-code order with random
tie-breaking; for ordinal attributes it is value order (also with random
tie-breaking inside equal values), matching how categorical rank swapping
is applied in the SDC literature (paper references [14] and [17]).
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import ProtectionError
from repro.methods.base import ProtectionMethod, registry


class RankSwapping(ProtectionMethod):
    """Swap each value with a partner at most ``p``% of records away in rank.

    Parameters
    ----------
    p:
        Window half-width as a percentage of the record count
        (``0 < p <= 100``).  The paper's populations sweep ``p`` from 1
        to 11.
    """

    method_name = "rank_swapping"

    def __init__(self, p: float = 5.0) -> None:
        if not 0 < p <= 100:
            raise ProtectionError(f"rank swapping needs 0 < p <= 100, got {p}")
        self.p = float(p)

    def describe(self) -> str:
        return f"rankswap(p={self.p:g})"

    def protect_column(self, dataset: CategoricalDataset, column: int, rng: np.random.Generator) -> np.ndarray:
        values = dataset.column(column)
        n = values.shape[0]
        window = max(1, int(round(n * self.p / 100.0)))

        # Rank order with random tie-breaking so equal categories are not
        # always paired with themselves.
        tiebreak = rng.permutation(n)
        order = np.lexsort((tiebreak, values))

        # Each untaken rank i swaps with a uniformly drawn untaken rank in
        # (i, i + window]; ranks already swapped are skipped, and a rank
        # with no free partner stays put without drawing.  ``free`` holds
        # the untaken ranks not yet visited, ascending, so its head is the
        # next rank to visit and its partners are the ranks after it.
        swapped_sorted = values[order].tolist()
        free = list(range(n))
        draw = rng.integers
        while free:
            i = free.pop(0)
            partners = bisect_right(free, i + window)
            if partners:
                j = free.pop(int(draw(partners)))
                swapped_sorted[i], swapped_sorted[j] = swapped_sorted[j], swapped_sorted[i]

        masked = np.empty(n, dtype=np.int64)
        masked[order] = swapped_sorted
        return masked


registry.register(RankSwapping)
