"""One scoring pass per batch: the measures share a ``CandidateBatch``.

The evaluator hands all seven measures one
:class:`~repro.metrics.base.CandidateBatch`, which validates each
candidate once per original, stacks its codes once and builds one
:class:`~repro.linkage.compressed.CompressedPair` per candidate and
linkage geometry.  Sharing must change throughput only: every score
equals what each measure computes on its own, and what the scalar
``compute`` returns candidate by candidate, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.datasets import load_dataset, protected_attributes
from repro.exceptions import DomainError, SchemaError
from repro.experiments.population_builder import build_initial_population
from repro.methods import Pram
from repro.metrics import ProtectionEvaluator
from repro.metrics.base import CandidateBatch
from repro.metrics.contingency import ContingencyTableLoss
from repro.metrics.distance_il import DistanceBasedLoss
from repro.metrics.entropy_il import EntropyBasedLoss
from repro.metrics.evaluation import _score_candidates
from repro.metrics.interval_disclosure import IntervalDisclosure
from repro.metrics.linkage_risk import (
    DistanceLinkageRisk,
    ProbabilisticLinkageRisk,
    RankSwappingLinkageRisk,
)

DATASETS = ("flare", "adult", "german", "housing")


@pytest.fixture(scope="module", params=DATASETS)
def scored(request):
    """``(evaluator, population, scalar components per candidate)`` of one dataset."""
    name = request.param
    original = load_dataset(name)
    population = build_initial_population(original, dataset_name=name, seed=0)
    evaluator = ProtectionEvaluator(original, protected_attributes(name))
    measures = evaluator.il_measures + evaluator.dr_measures
    scalar = np.array([[m.compute(masked) for m in measures] for masked in population])
    return evaluator, population, scalar


def _chunks(population, size):
    return [population[start:start + size] for start in range(0, len(population), size)]


@pytest.mark.parametrize("size", [1, 2, 5, None])
def test_shared_batch_equals_each_measure_and_mapped_compute(scored, size):
    evaluator, population, scalar = scored
    measures = evaluator.il_measures + evaluator.dr_measures
    shared_rows, alone_rows = [], []
    for chunk in _chunks(population, size or len(population)):
        scores = _score_candidates(evaluator.il_measures, evaluator.dr_measures,
                                   evaluator.score_function, chunk)
        shared_rows += [
            [{**score.il_components, **score.dr_components}[m.measure_name] for m in measures]
            for score in scores
        ]
        alone_rows += np.stack([m.compute_many(chunk) for m in measures], axis=1).tolist()
    assert np.array_equal(np.array(shared_rows), scalar)
    assert np.array_equal(np.array(alone_rows), scalar)


def test_custom_stack_with_linkage_bound_to_other_attributes(flare):
    """Measures on other attribute sets get their own codes and pairs."""
    protected = protected_attributes("flare")
    others = ("ACTIVITY", "EVOLUTION", "AREA")
    two = protected[:2]
    il = [ContingencyTableLoss(flare, flare.attribute_names),  # per-subset fallback
          DistanceBasedLoss(flare, others), EntropyBasedLoss(flare, two)]
    dr = [IntervalDisclosure(flare, others), DistanceLinkageRisk(flare, protected),
          ProbabilisticLinkageRisk(flare, others), RankSwappingLinkageRisk(flare, two),
          DistanceLinkageRisk(flare, others)]
    population = build_initial_population(flare, dataset_name="flare", seed=0)[:12]
    batch = CandidateBatch(population)
    shared = np.stack([m.compute_many(batch) for m in il + dr], axis=1)
    scalar = np.array([[m.compute(masked) for m in il + dr] for masked in population])
    assert np.array_equal(shared, scalar)
    # One pair list per distinct (original, columns); equal bindings share it.
    assert batch.pairs(dr[1].index) is not batch.pairs(dr[2].index)
    assert batch.pairs(dr[2].index) is batch.pairs(dr[4].index)
    assert batch.pairs(dr[3].index) is not batch.pairs(dr[1].index)
    evaluator = ProtectionEvaluator(flare, il_measures=il, dr_measures=dr)
    assert evaluator.evaluate_many(population) == [
        ProtectionEvaluator(flare, il_measures=il, dr_measures=dr).evaluate(masked)
        for masked in population
    ]


def test_plain_sequence_and_empty_batch(flare):
    measure = DistanceLinkageRisk(flare, protected_attributes("flare"))
    population = build_initial_population(flare, dataset_name="flare", seed=0)[:3]
    assert np.array_equal(measure.compute_many(population),
                          measure.compute_many(CandidateBatch(population)))
    assert measure.compute_many(CandidateBatch([])).shape == (0,)


ADULT = protected_attributes("adult")


@pytest.fixture(scope="module")
def twins(small_adult):
    """Adult and its twin with ``EDUCATION`` flipped ordinal/nominal, same codes."""
    schema_b = DatasetSchema([
        CategoricalDomain(d.name, d.categories, ordinal=not d.ordinal)
        if d.name == "EDUCATION" else d
        for d in small_adult.schema
    ])
    masked_a = Pram(theta=0.3).protect(small_adult, ADULT, seed=5)
    original_b = CategoricalDataset(small_adult.codes, schema_b, name="adult-small-b")
    masked_b = CategoricalDataset(masked_a.codes, schema_b, name="masked-b")
    return {"A": (small_adult, masked_a), "B": (original_b, masked_b)}


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_schema_twins_never_share_a_batch(twins, order):
    measures = {tag: DistanceLinkageRisk(original, ADULT) for tag, (original, _) in twins.items()}
    alone = {tag: measures[tag].compute(masked) for tag, (_, masked) in twins.items()}
    assert alone["A"] != alone["B"]
    first, second = order
    batch = CandidateBatch([twins[first][1]])
    assert measures[first].compute_many(batch)[0] == alone[first]
    # Validated against one twin's original is not validated against the other's.
    with pytest.raises(SchemaError):
        measures[second].compute_many(batch)
    assert measures[second].compute_many(CandidateBatch([twins[second][1]]))[0] == alone[second]


@pytest.mark.parametrize("order", ["AB", "BA"])
def test_schema_twins_score_apart_through_the_evaluator(twins, order):
    fresh = {tag: ProtectionEvaluator(original, ADULT).evaluate_many([masked])[0]
             for tag, (original, masked) in twins.items()}
    assert fresh["A"] != fresh["B"]
    for tag in order:
        original, masked = twins[tag]
        evaluator = ProtectionEvaluator(original, ADULT)
        assert evaluator.evaluate_many([masked, masked])[0] == fresh[tag]


def test_bad_code_in_a_late_column_names_it(flare):
    codes = flare.codes_copy()
    last = flare.n_attributes - 1
    domain = flare.schema.domain(last)
    codes[700, last] = domain.size
    with pytest.raises(DomainError) as raised:
        CategoricalDataset(codes, flare.schema)
    with pytest.raises(DomainError) as expected:
        domain.validate_codes(codes[:, last])
    assert str(raised.value) == str(expected.value)
    codes[700, last] = -1
    with pytest.raises(DomainError, match=f"code -1 out of range for domain '{domain.name}'"):
        CategoricalDataset(codes, flare.schema)
