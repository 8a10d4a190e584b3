"""A score depends only on (original, candidate, measure configuration).

Two originals with identical codes but different schemas — adult, and
adult with ``EDUCATION`` nominal instead of ordinal — must never share
linkage geometry or persistent-cache entries, whatever the process
scored before.
"""

from __future__ import annotations

import pytest

from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.datasets import protected_attributes
from repro.linkage import distance_based_record_linkage, rank_swapping_record_linkage
from repro.methods import Pram
from repro.metrics import ProtectionEvaluator
from repro.metrics.linkage_risk import DistanceLinkageRisk, RankSwappingLinkageRisk
from repro.service.cache import EvaluationCache

ATTRS = protected_attributes("adult")


@pytest.fixture(scope="module")
def twins(small_adult) -> dict[str, tuple[CategoricalDataset, CategoricalDataset]]:
    """``{"A": (original, masked), "B": (original, masked)}``, same codes."""
    schema_b = DatasetSchema([
        CategoricalDomain(d.name, d.categories, ordinal=not d.ordinal)
        if d.name == "EDUCATION" else d
        for d in small_adult.schema
    ])
    masked_a = Pram(theta=0.3).protect(small_adult, ATTRS, seed=5)
    original_b = CategoricalDataset(small_adult.codes, schema_b, name="adult-small-b")
    masked_b = CategoricalDataset(masked_a.codes, schema_b, name="masked-b")
    return {"A": (small_adult, masked_a), "B": (original_b, masked_b)}


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_linkage_scores_match_reference_in_either_order(twins, order):
    references = {
        tag: distance_based_record_linkage(original, masked, ATTRS)
        for tag, (original, masked) in twins.items()
    }
    # The schemas must disagree on DBRL, or the test could not tell them apart.
    assert references["A"] != references["B"]
    for tag in order:
        original, masked = twins[tag]
        assert DistanceLinkageRisk(original, ATTRS).compute(masked) == pytest.approx(
            references[tag], abs=1e-9
        )
        assert RankSwappingLinkageRisk(original, ATTRS).compute(masked) == pytest.approx(
            rank_swapping_record_linkage(original, masked, ATTRS, window=0.1), abs=1e-9
        )


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_shared_cache_file_keeps_schemas_apart(twins, order, tmp_path):
    fresh = {
        tag: ProtectionEvaluator(original, ATTRS).evaluate(masked)
        for tag, (original, masked) in twins.items()
    }
    assert fresh["A"] != fresh["B"]
    with EvaluationCache(tmp_path / "evals.sqlite") as cache:
        for tag in order:
            original, masked = twins[tag]
            evaluator = ProtectionEvaluator(original, ATTRS, persistent_cache=cache)
            assert evaluator.evaluate(masked) == fresh[tag]
            assert evaluator.persistent_hits == 0


def test_config_fingerprint_covers_the_schema(twins):
    fingerprints = {
        ProtectionEvaluator(original, ATTRS).config_fingerprint()
        for original, _ in twins.values()
    }
    assert len(fingerprints) == 2
