"""M1 — measure micro-benchmarks.

Fitness evaluation is the paper's acknowledged bottleneck; these benches
time every IL and DR measure individually, plus the full evaluator, and
the compressed-vs-reference linkage speedup that makes the reproduction
laptop-fast.
"""

from __future__ import annotations

import pytest

from repro.datasets import load_adult, protected_attributes
from repro.linkage import (
    distance_based_record_linkage,
    probabilistic_record_linkage,
    rank_swapping_record_linkage,
)
from repro.linkage.compressed import CompressedPair, OriginalIndex
from repro.methods import Pram
from repro.metrics import (
    ContingencyTableLoss,
    DistanceBasedLoss,
    DistanceLinkageRisk,
    EntropyBasedLoss,
    IntervalDisclosure,
    ProbabilisticLinkageRisk,
    ProtectionEvaluator,
    RankSwappingLinkageRisk,
)

ORIGINAL = load_adult()
ATTRS = protected_attributes("adult")
MASKED = Pram(theta=0.3).protect(ORIGINAL, ATTRS, seed=1)

IL_MEASURES = [ContingencyTableLoss, DistanceBasedLoss, EntropyBasedLoss]
DR_MEASURES = [IntervalDisclosure, DistanceLinkageRisk, ProbabilisticLinkageRisk, RankSwappingLinkageRisk]


@pytest.mark.parametrize("measure_cls", IL_MEASURES + DR_MEASURES, ids=lambda c: c.measure_name)
def test_measure_throughput(benchmark, measure_cls):
    measure = measure_cls(ORIGINAL, ATTRS)
    value = benchmark(measure.compute, MASKED)
    assert 0.0 <= value <= 100.0


def test_full_evaluation_throughput(benchmark):
    evaluator = ProtectionEvaluator(ORIGINAL, ATTRS, cache_size=0)
    score = benchmark(evaluator.evaluate, MASKED)
    assert 0.0 <= score.score <= 100.0


def test_cached_evaluation_throughput(benchmark):
    evaluator = ProtectionEvaluator(ORIGINAL, ATTRS)
    evaluator.evaluate(MASKED)  # warm the cache
    score = benchmark(evaluator.evaluate, MASKED)
    assert evaluator.cache_hits > 0
    assert 0.0 <= score.score <= 100.0


@pytest.mark.parametrize(
    "path,fn",
    [
        ("reference_n2", lambda: distance_based_record_linkage(ORIGINAL, MASKED, ATTRS)),
        ("compressed", lambda: CompressedPair(OriginalIndex(ORIGINAL, ATTRS), MASKED).distance_linkage()),
    ],
)
def test_dbrl_reference_vs_compressed(benchmark, path, fn):
    value = benchmark(fn)
    assert 0.0 <= value <= 100.0


@pytest.mark.parametrize(
    "path,fn",
    [
        ("reference_n2", lambda: probabilistic_record_linkage(ORIGINAL, MASKED, ATTRS)),
        ("compressed", lambda: ProbabilisticLinkageRisk(ORIGINAL, ATTRS).compute(MASKED)),
    ],
)
def test_prl_reference_vs_compressed(benchmark, path, fn):
    value = benchmark(fn)
    assert 0.0 <= value <= 100.0


@pytest.mark.parametrize(
    "path,fn",
    [
        ("reference_n2", lambda: rank_swapping_record_linkage(ORIGINAL, MASKED, ATTRS)),
        ("compressed", lambda: CompressedPair(OriginalIndex(ORIGINAL, ATTRS), MASKED).rank_linkage()),
    ],
)
def test_rsrl_reference_vs_compressed(benchmark, path, fn):
    value = benchmark(fn)
    assert 0.0 <= value <= 100.0
