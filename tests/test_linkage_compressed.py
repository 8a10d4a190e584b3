"""The compressed linkage path must match the reference n^2 path exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linkage import (
    distance_based_record_linkage,
    probabilistic_record_linkage,
    rank_swapping_record_linkage,
)
from repro.linkage.compressed import CompressedPair, OriginalIndex
from repro.methods import LocalSuppression, Microaggregation, Pram, RankSwapping, TopCoding
from repro.metrics.linkage_risk import (
    DistanceLinkageRisk,
    ProbabilisticLinkageRisk,
    RankSwappingLinkageRisk,
)

ATTRS = ["EDUCATION", "MARITAL-STATUS", "OCCUPATION"]

MASKINGS = [
    ("identity", None),
    ("pram", Pram(theta=0.3)),
    ("rankswap", RankSwapping(p=6)),
    ("microagg", Microaggregation(k=4)),
    ("topcode", TopCoding(fraction=0.2)),
    ("suppress", LocalSuppression(fraction=0.2)),
]


def _mask(dataset, method):
    if method is None:
        return dataset.with_codes(dataset.codes_copy(), name="identity")
    return method.protect(dataset, ATTRS, seed=99)


@pytest.mark.parametrize("label,method", MASKINGS, ids=[m[0] for m in MASKINGS])
class TestEquivalence:
    def test_dbrl_matches_reference(self, small_adult, label, method):
        masked = _mask(small_adult, method)
        reference = distance_based_record_linkage(small_adult, masked, ATTRS)
        compressed = DistanceLinkageRisk(small_adult, ATTRS).compute(masked)
        assert compressed == pytest.approx(reference, abs=1e-9)

    def test_prl_matches_reference(self, small_adult, label, method):
        masked = _mask(small_adult, method)
        reference = probabilistic_record_linkage(small_adult, masked, ATTRS)
        compressed = ProbabilisticLinkageRisk(small_adult, ATTRS).compute(masked)
        assert compressed == pytest.approx(reference, abs=1e-6)

    def test_rsrl_matches_reference(self, small_adult, label, method):
        masked = _mask(small_adult, method)
        reference = rank_swapping_record_linkage(small_adult, masked, ATTRS, window=0.1)
        compressed = RankSwappingLinkageRisk(small_adult, ATTRS, window=0.1).compute(masked)
        assert compressed == pytest.approx(reference, abs=1e-9)


class TestCompressedStructure:
    def test_inverse_reconstructs_tuples(self, small_adult):
        masked = Pram(theta=0.3).protect(small_adult, ATTRS, seed=1)
        pair = CompressedPair(OriginalIndex(small_adult, ATTRS), masked)
        index = pair.index
        columns = [small_adult.schema.index_of(a) for a in ATTRS]
        reconstructed = index.unique_original[index.inverse_original]
        assert np.array_equal(reconstructed, small_adult.codes[:, columns])
        cells = index.cell_tuples(pair.keys)
        assert np.array_equal(cells[pair.inverse_masked], masked.codes[:, columns])
        assert np.all(np.diff(pair.keys) > 0)

    def test_masked_counts_sum_to_n(self, small_adult):
        masked = Pram(theta=0.3).protect(small_adult, ATTRS, seed=1)
        pair = CompressedPair(OriginalIndex(small_adult, ATTRS), masked)
        assert pair.counts_masked.sum() == small_adult.n_records
