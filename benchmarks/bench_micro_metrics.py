"""M1 — measure micro-benchmarks.

Fitness evaluation is the paper's acknowledged bottleneck; these benches
time every IL and DR measure individually, plus the full evaluator, and
the compressed-vs-reference linkage speedup that makes the reproduction
laptop-fast.  Each linkage measure is timed three ways: the ``n^2``
reference, a freshly bound measure per call (cold: every cell's row is
computed), and one bound measure scoring a new candidate per call whose
cells are already in its table (warm).
"""

from __future__ import annotations

import functools
import itertools

import pytest

from repro.datasets import load_adult, protected_attributes
from repro.linkage import (
    distance_based_record_linkage,
    probabilistic_record_linkage,
    rank_swapping_record_linkage,
)
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


LINKAGE = {
    "dbrl": (DistanceLinkageRisk, distance_based_record_linkage),
    "prl": (ProbabilisticLinkageRisk, probabilistic_record_linkage),
    "rsrl": (RankSwappingLinkageRisk, rank_swapping_record_linkage),
}


def _leg(name: str, path: str):
    """The callable one benchmark round times for (measure, path)."""
    measure_cls, reference = LINKAGE[name]
    if path == "reference_n2":
        return functools.partial(reference, ORIGINAL, MASKED, ATTRS)
    if path == "cold":
        return lambda: measure_cls(ORIGINAL, ATTRS).compute(MASKED)
    # Warm: one bound measure scoring fresh Pram candidates, one per
    # call.  They are scored once before timing, so every cell they
    # occupy is already in the measure's table: the GA's steady state,
    # where a candidate's grids are gathers.
    candidates = [Pram(theta=0.3).protect(ORIGINAL, ATTRS, seed=seed) for seed in range(2, 22)]
    measure = measure_cls(ORIGINAL, ATTRS)
    measure.compute_many(candidates)
    stream = itertools.cycle(candidates)
    return lambda: measure.compute(next(stream))


@pytest.mark.parametrize("path", ["reference_n2", "cold", "warm"])
@pytest.mark.parametrize("name", list(LINKAGE))
def test_linkage_reference_vs_compressed(benchmark, name, path):
    """The n^2 reference, a freshly bound measure (cold), and a warm one."""
    value = benchmark(_leg(name, path))
    assert 0.0 <= value <= 100.0
