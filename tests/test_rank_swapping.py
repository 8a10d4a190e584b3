"""Unit tests for rank swapping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import CategoricalDataset
from repro.data.domain import CategoricalDomain
from repro.data.schema import DatasetSchema
from repro.exceptions import ProtectionError
from repro.methods import RankSwapping


class TestValidation:
    @pytest.mark.parametrize("p", [0, -1, 101])
    def test_bad_p(self, p):
        with pytest.raises(ProtectionError):
            RankSwapping(p=p)

    def test_describe(self):
        assert RankSwapping(p=5).describe() == "rankswap(p=5)"


class TestMarginalPreservation:
    """Rank swapping permutes values: marginals are preserved exactly."""

    @pytest.mark.parametrize("p", [1, 5, 20])
    def test_value_counts_unchanged(self, adult, p):
        attrs = ("EDUCATION", "MARITAL-STATUS", "OCCUPATION")
        masked = RankSwapping(p=p).protect(adult, attrs, seed=3)
        for attribute in attrs:
            assert np.array_equal(
                masked.value_counts(attribute), adult.value_counts(attribute)
            )

    def test_column_is_permutation(self, adult):
        masked = RankSwapping(p=10).protect(adult, ("EDUCATION",), seed=1)
        assert sorted(masked.column("EDUCATION")) == sorted(adult.column("EDUCATION"))


class TestWindow:
    def test_small_window_small_moves(self, adult):
        # Ordinal attribute: with p=1 the swapped value's rank moves by at
        # most ~1% of records, so code distance should stay tiny.
        masked = RankSwapping(p=1).protect(adult, ("EDUCATION",), seed=2)
        moved = np.abs(masked.column("EDUCATION") - adult.column("EDUCATION"))
        assert moved.max() <= 2

    def test_larger_p_changes_more(self, adult):
        small = RankSwapping(p=1).protect(adult, ("EDUCATION",), seed=4)
        large = RankSwapping(p=30).protect(adult, ("EDUCATION",), seed=4)
        dist_small = np.abs(small.column("EDUCATION") - adult.column("EDUCATION")).sum()
        dist_large = np.abs(large.column("EDUCATION") - adult.column("EDUCATION")).sum()
        assert dist_large > dist_small

    def test_seed_reproducible(self, adult):
        a = RankSwapping(p=5).protect(adult, ("EDUCATION",), seed=9)
        b = RankSwapping(p=5).protect(adult, ("EDUCATION",), seed=9)
        assert a.equals(b)

    def test_different_seeds_differ(self, adult):
        a = RankSwapping(p=5).protect(adult, ("EDUCATION",), seed=1)
        b = RankSwapping(p=5).protect(adult, ("EDUCATION",), seed=2)
        assert not a.equals(b)

    def test_untouched_attributes_identical(self, adult):
        masked = RankSwapping(p=5).protect(adult, ("EDUCATION",), seed=1)
        assert np.array_equal(masked.column("SEX"), adult.column("SEX"))


class _RecordingRng:
    """Generator proxy that logs every draw the swapper asks for."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        self.calls: list[tuple[str, int]] = []

    def permutation(self, n):
        self.calls.append(("permutation", int(n)))
        return self._rng.permutation(n)

    def integers(self, high):
        self.calls.append(("integers", int(high)))
        return self._rng.integers(high)

    @property
    def state(self) -> dict:
        return self._rng.bit_generator.state


def _reference_swap(values: np.ndarray, p: float, rng) -> np.ndarray:
    """The per-record candidate-list loop the vectorized lookup replaced."""
    n = values.shape[0]
    window = max(1, int(round(n * p / 100.0)))
    tiebreak = rng.permutation(n)
    order = np.lexsort((tiebreak, values))
    swapped_sorted = values[order].copy()
    taken = np.zeros(n, dtype=bool)
    for i in range(n):
        if taken[i]:
            continue
        high = min(n - 1, i + window)
        candidates = [j for j in range(i + 1, high + 1) if not taken[j]]
        if not candidates:
            taken[i] = True
            continue
        j = candidates[int(rng.integers(len(candidates)))]
        swapped_sorted[i], swapped_sorted[j] = swapped_sorted[j], swapped_sorted[i]
        taken[i] = True
        taken[j] = True
    masked = np.empty(n, dtype=np.int64)
    masked[order] = swapped_sorted
    return masked


class TestMatchesReferenceLoop:
    """Same draws (same ``k``, same order), same output, same RNG state."""

    @settings(max_examples=150, deadline=None)
    @given(
        codes=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=120),
        p=st.floats(min_value=0.5, max_value=100.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_draw_for_draw(self, codes, p, seed):
        domain = CategoricalDomain("A", [f"c{c}" for c in range(6)], ordinal=True)
        data = CategoricalDataset(np.array(codes)[:, None], DatasetSchema([domain]))
        expected_rng, rng = _RecordingRng(seed), _RecordingRng(seed)
        expected = _reference_swap(data.column(0), p, expected_rng)
        masked = RankSwapping(p=p).protect_column(data, 0, rng)
        assert np.array_equal(masked, expected)
        assert rng.calls == expected_rng.calls
        assert rng.state == expected_rng.state

    @pytest.mark.parametrize("p", [1, 6, 11])
    def test_paper_sweep_on_real_data(self, adult, p):
        column = adult.schema.index_of("OCCUPATION")
        expected_rng, rng = _RecordingRng(p), _RecordingRng(p)
        expected = _reference_swap(adult.column(column), p, expected_rng)
        masked = RankSwapping(p=p).protect_column(adult, column, rng)
        assert np.array_equal(masked, expected)
        assert rng.calls == expected_rng.calls
