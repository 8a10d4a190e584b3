"""Property-based tests for protection methods and measures.

Invariants pinned here:

* every method returns in-domain codes and never touches unlisted
  attributes (the library's core safety contract);
* rank swapping preserves marginals exactly, for any parameters;
* PRAM transition matrices are stochastic for any frequency vector;
* IL measures are 0 on identity and bounded in [0, 100] for arbitrary
  maskings; interval disclosure is 100 on identity;
* compressed and reference linkage agree on random pairs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.linkage import distance_based_record_linkage, rank_swapping_record_linkage
from repro.methods import (
    BottomCoding,
    GlobalRecoding,
    LocalSuppression,
    Microaggregation,
    Pram,
    RankSwapping,
    TopCoding,
    basic_transition_matrix,
    invariant_transition_matrix,
)
from repro.metrics import (
    ContingencyTableLoss,
    DistanceBasedLoss,
    DistanceLinkageRisk,
    EntropyBasedLoss,
    IntervalDisclosure,
    RankSwappingLinkageRisk,
)


@st.composite
def small_datasets(draw):
    n_attributes = draw(st.integers(min_value=2, max_value=4))
    sizes = [draw(st.integers(min_value=2, max_value=9)) for __ in range(n_attributes)]
    schema = DatasetSchema(
        [
            CategoricalDomain(f"A{i}", [f"c{j}" for j in range(size)], ordinal=bool(i % 2))
            for i, size in enumerate(sizes)
        ]
    )
    n_records = draw(st.integers(min_value=4, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    codes = np.column_stack([rng.integers(0, size, size=n_records) for size in sizes])
    return CategoricalDataset(codes, schema)


METHOD_FACTORIES = [
    lambda: Microaggregation(k=2),
    lambda: Microaggregation(k=3),
    lambda: RankSwapping(p=5),
    lambda: Pram(theta=0.3),
    lambda: TopCoding(fraction=0.3),
    lambda: BottomCoding(fraction=0.3),
    lambda: GlobalRecoding(level=1),
    lambda: LocalSuppression(fraction=0.2),
]


class TestMethodContract:
    @given(small_datasets(), st.sampled_from(range(len(METHOD_FACTORIES))),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=80, deadline=None)
    def test_in_domain_and_untouched_columns(self, dataset, method_index, seed):
        method = METHOD_FACTORIES[method_index]()
        attrs = [dataset.attribute_names[0]]
        masked = method.protect(dataset, attrs, seed=seed)
        dataset.require_compatible(masked)  # validates in-domain codes
        for i, name in enumerate(dataset.attribute_names):
            if name not in attrs:
                assert np.array_equal(masked.codes[:, i], dataset.codes[:, i])

    @given(small_datasets(), st.floats(min_value=1, max_value=50),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_rank_swapping_preserves_marginals(self, dataset, p, seed):
        attrs = list(dataset.attribute_names[:2])
        masked = RankSwapping(p=p).protect(dataset, attrs, seed=seed)
        for attr in attrs:
            assert np.array_equal(masked.value_counts(attr), dataset.value_counts(attr))


class TestPramMatrices:
    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=12),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100)
    def test_basic_matrix_stochastic(self, counts, theta):
        matrix = basic_transition_matrix(np.array(counts), theta)
        assert (matrix >= -1e-12).all()
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=12),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=100)
    def test_invariant_matrix_invariance(self, counts, theta):
        arr = np.array(counts)
        matrix = invariant_transition_matrix(arr, theta)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        p = (arr + 1.0) / (arr.sum() + arr.size)
        np.testing.assert_allclose(p @ matrix, p, atol=1e-8)


class TestMeasureBounds:
    @given(small_datasets(), st.sampled_from(range(len(METHOD_FACTORIES))),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50, deadline=None)
    def test_il_measures_bounded_and_zero_on_identity(self, dataset, method_index, seed):
        attrs = list(dataset.attribute_names[:2])
        masked = METHOD_FACTORIES[method_index]().protect(dataset, attrs, seed=seed)
        for cls in (ContingencyTableLoss, DistanceBasedLoss, EntropyBasedLoss):
            measure = cls(dataset, attrs)
            assert measure.compute(dataset) == 0.0
            assert 0.0 <= measure.compute(masked) <= 100.0

    @given(small_datasets())
    @settings(max_examples=40, deadline=None)
    def test_interval_disclosure_identity_is_hundred(self, dataset):
        attrs = list(dataset.attribute_names[:2])
        assert IntervalDisclosure(dataset, attrs).compute(dataset) == 100.0


class TestCompressedLinkageProperty:
    @given(small_datasets(), st.sampled_from(range(len(METHOD_FACTORIES))),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_compressed_equals_reference(self, dataset, method_index, seed):
        attrs = list(dataset.attribute_names[:2])
        masked = METHOD_FACTORIES[method_index]().protect(dataset, attrs, seed=seed)
        dbrl = DistanceLinkageRisk(dataset, attrs).compute(masked)
        assert abs(dbrl - distance_based_record_linkage(dataset, masked, attrs)) < 1e-9
        rsrl = RankSwappingLinkageRisk(dataset, attrs, window=0.15).compute(masked)
        assert abs(rsrl - rank_swapping_record_linkage(dataset, masked, attrs, 0.15)) < 1e-9
