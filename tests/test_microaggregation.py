"""Unit tests for categorical microaggregation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.dataset import CategoricalDataset
from repro.data.domain import CategoricalDomain
from repro.data.schema import DatasetSchema
from repro.exceptions import ProtectionError
from repro.methods import MdavMicroaggregation, Microaggregation
from repro.methods.microaggregation import _group_aggregates, _group_labels


def _boundaries(n_records: int, k: int) -> list[tuple[int, int]]:
    """(start, stop) of each group, read back from the group labels."""
    labels = _group_labels(n_records, k)
    return [
        (int(np.flatnonzero(labels == g)[0]), int(np.flatnonzero(labels == g)[-1]) + 1)
        for g in range(int(labels.max()) + 1)
    ]


def _aggregate(codes: np.ndarray, ordinal: bool) -> int:
    """One group's aggregate through the vectorized kernel."""
    size = int(codes.max()) + 1
    groups = np.zeros(codes.size, dtype=np.int64)
    return int(_group_aggregates(codes, groups, 1, size, ordinal)[0])


class TestGroupBoundaries:
    def test_exact_multiple(self):
        assert _boundaries(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_remainder_absorbed_by_last_group(self):
        boundaries = _boundaries(10, 3)
        assert boundaries == [(0, 3), (3, 6), (6, 10)]
        assert all(stop - start >= 3 for start, stop in boundaries)

    def test_fewer_records_than_k(self):
        assert _boundaries(2, 5) == [(0, 2)]

    def test_every_record_covered_once(self):
        labels = _group_labels(23, 4)
        assert labels.shape == (23,)
        assert np.all(np.diff(labels) >= 0)
        assert np.bincount(labels).min() >= 4


class TestAggregate:
    def test_ordinal_median(self):
        assert _aggregate(np.array([1, 2, 9]), ordinal=True) == 2

    def test_nominal_mode(self):
        assert _aggregate(np.array([3, 3, 1, 2]), ordinal=False) == 3

    def test_nominal_mode_tie_lowest_code(self):
        assert _aggregate(np.array([2, 1, 1, 2]), ordinal=False) == 1

    def test_even_ordinal_median_truncates_like_int_median(self):
        # np.median([1, 2, 6, 9]) == 4.0; np.median([1, 4]) == 2.5 -> 2.
        assert _aggregate(np.array([9, 1, 6, 2]), ordinal=True) == 4
        assert _aggregate(np.array([4, 1]), ordinal=True) == 2


# -- reference: the per-group loop the vectorized kernel replaced ------------


def _reference_boundaries(n_records: int, k: int) -> list[tuple[int, int]]:
    if n_records < k:
        return [(0, n_records)]
    boundaries = []
    start = 0
    while n_records - start >= 2 * k:
        boundaries.append((start, start + k))
        start += k
    boundaries.append((start, n_records))
    return boundaries


def _reference_aggregate(codes: np.ndarray, ordinal: bool) -> int:
    if ordinal:
        return int(np.median(codes))
    return int(np.argmax(np.bincount(codes)))


def _reference_protect_column(method, dataset, column):
    domain = dataset.schema.domain(column)
    order = method._sort_order(dataset, column)
    values = dataset.column(column)
    masked = values.copy()
    sorted_values = values[order]
    for start, stop in _reference_boundaries(dataset.n_records, method.k):
        masked[order[start:stop]] = _reference_aggregate(sorted_values[start:stop], domain.ordinal)
    return masked


@st.composite
def _datasets(draw):
    """Random 3-column files mixing ordinal and nominal domains."""
    n_records = draw(st.integers(min_value=1, max_value=60))
    domains = []
    columns = []
    for index in range(3):
        size = draw(st.integers(min_value=1, max_value=9))
        ordinal = draw(st.booleans())
        domains.append(CategoricalDomain(f"A{index}", [f"c{c}" for c in range(size)], ordinal=ordinal))
        columns.append(draw(st.lists(
            st.integers(min_value=0, max_value=size - 1),
            min_size=n_records, max_size=n_records,
        )))
    codes = np.array(columns, dtype=np.int64).T.reshape(n_records, 3)
    return CategoricalDataset(codes, DatasetSchema(domains), name="random")


class TestVectorizedMatchesReferenceLoop:
    """The one-pass kernel equals the per-group loop, code for code."""

    @settings(max_examples=150, deadline=None)
    @given(data=_datasets(), k_offset=st.integers(min_value=0, max_value=61),
           joint=st.booleans())
    def test_protect_column(self, data, k_offset, joint):
        k = 2 + k_offset % data.n_records  # k in 2..n+1
        attrs = data.attribute_names
        method = (Microaggregation(k=k, strategy="joint", sort_attributes=attrs) if joint
                  else Microaggregation(k=k))
        rng = np.random.default_rng(0)
        for column in range(data.n_attributes):
            expected = _reference_protect_column(method, data, column)
            assert np.array_equal(method.protect_column(data, column, rng), expected)

    @settings(max_examples=100, deadline=None)
    @given(data=_datasets(), n_groups=st.integers(min_value=1, max_value=8),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_arbitrary_groups(self, data, n_groups, seed):
        # MDAV's groups are arbitrary index sets, not contiguous runs.
        groups = np.random.default_rng(seed).integers(n_groups, size=data.n_records)
        groups[:n_groups] = np.arange(min(n_groups, data.n_records))
        n_groups = int(groups.max()) + 1
        for column in range(data.n_attributes):
            domain = data.schema.domain(column)
            values = data.column(column)
            aggregates = _group_aggregates(values, groups, n_groups, domain.size, domain.ordinal)
            expected = [
                _reference_aggregate(values[groups == g], domain.ordinal) for g in range(n_groups)
            ]
            assert aggregates.tolist() == expected

    def test_mdav_matches_reference_loop(self, adult):
        attrs = ("EDUCATION", "MARITAL-STATUS", "OCCUPATION")
        method = MdavMicroaggregation(k=4)
        columns = [adult.schema.index_of(a) for a in attrs]
        sizes = np.array([adult.schema.domain(c).size for c in columns])
        ordinal = np.array([adult.schema.domain(c).ordinal for c in columns])
        sub_codes = adult.codes[:, columns]
        expected = adult.codes_copy()
        for group in method._partition(sub_codes, sizes, ordinal):
            for slot, column in enumerate(columns):
                expected[group, column] = _reference_aggregate(sub_codes[group, slot], bool(ordinal[slot]))
        assert np.array_equal(method.protect(adult, attrs).codes, expected)


class TestMicroaggregation:
    def test_k_validation(self):
        with pytest.raises(ProtectionError):
            Microaggregation(k=1)

    def test_strategy_validation(self):
        with pytest.raises(ProtectionError):
            Microaggregation(strategy="cosmic")

    def test_groups_have_at_least_k_identical_values(self, adult):
        attrs = ("EDUCATION", "MARITAL-STATUS", "OCCUPATION")
        masked = Microaggregation(k=5).protect(adult, attrs)
        for attribute in attrs:
            counts = masked.value_counts(attribute)
            used = counts[counts > 0]
            # Every published category must cover at least k records
            # (groups may merge onto the same aggregate, only growing them).
            assert used.min() >= 5

    def test_larger_k_coarser(self, adult):
        attrs = ("EDUCATION",)
        small_k = Microaggregation(k=2).protect(adult, attrs)
        large_k = Microaggregation(k=50).protect(adult, attrs)
        distinct_small = (small_k.value_counts("EDUCATION") > 0).sum()
        distinct_large = (large_k.value_counts("EDUCATION") > 0).sum()
        assert distinct_large <= distinct_small

    def test_untouched_attributes_identical(self, adult):
        masked = Microaggregation(k=3).protect(adult, ("EDUCATION",))
        for attribute in adult.attribute_names:
            if attribute == "EDUCATION":
                continue
            assert np.array_equal(masked.column(attribute), adult.column(attribute))

    def test_deterministic(self, adult):
        attrs = ("EDUCATION", "OCCUPATION")
        a = Microaggregation(k=4).protect(adult, attrs)
        b = Microaggregation(k=4).protect(adult, attrs)
        assert a.equals(b)

    def test_joint_needs_sort_attributes(self, adult):
        method = Microaggregation(k=3, strategy="joint")
        with pytest.raises(ProtectionError, match="sort_attributes"):
            method.protect(adult, ("EDUCATION",))

    def test_joint_strategy_runs(self, adult):
        attrs = ("EDUCATION", "MARITAL-STATUS")
        method = Microaggregation(k=3, strategy="joint", sort_attributes=attrs)
        masked = method.protect(adult, attrs)
        assert masked.n_records == adult.n_records
        assert adult.cells_changed(masked) > 0

    def test_joint_and_univariate_differ(self, adult):
        attrs = ("EDUCATION", "MARITAL-STATUS", "OCCUPATION")
        univariate = Microaggregation(k=5).protect(adult, attrs)
        joint = Microaggregation(k=5, strategy="joint", sort_attributes=attrs).protect(adult, attrs)
        assert not univariate.equals(joint)

    def test_describe(self):
        assert Microaggregation(k=3).describe() == "microagg(k=3,univariate)"
