"""Unit tests for ProtectionEvaluator and ProtectionScore."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.operators import mutate
from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.exceptions import MetricError
from repro.metrics import (
    MaxScore,
    MeanScore,
    ProtectionEvaluator,
    ProtectionScore,
    default_dr_measures,
    default_il_measures,
)
from repro.methods import Pram

ATTRS = ["EDUCATION", "MARITAL-STATUS", "OCCUPATION"]


class TestProtectionScore:
    def test_is_better_than(self):
        good = ProtectionScore(10, 10, 10)
        bad = ProtectionScore(30, 30, 30)
        assert good.is_better_than(bad)
        assert not bad.is_better_than(good)
        assert not good.is_better_than(good)

    def test_imbalance(self):
        assert ProtectionScore(10, 25, 25).imbalance() == 15

    def test_str_mentions_components(self):
        text = str(ProtectionScore(10.0, 20.0, 20.0))
        assert "IL=10.00" in text and "DR=20.00" in text


class TestDefaults:
    def test_paper_measure_stacks(self, small_adult):
        il = default_il_measures(small_adult, ATTRS)
        dr = default_dr_measures(small_adult, ATTRS)
        assert [m.measure_name for m in il] == ["ctbil", "dbil", "ebil"]
        assert [m.measure_name for m in dr] == ["interval_disclosure", "dbrl", "prl", "rsrl"]

    def test_default_score_is_max(self, small_adult):
        evaluator = ProtectionEvaluator(small_adult, ATTRS)
        assert evaluator.score_function.score_name == "max"


class TestEvaluate:
    def test_components_average_to_aggregates(self, small_adult):
        evaluator = ProtectionEvaluator(small_adult, ATTRS)
        masked = Pram(theta=0.3).protect(small_adult, ATTRS, seed=0)
        score = evaluator.evaluate(masked)
        assert score.information_loss == pytest.approx(
            sum(score.il_components.values()) / len(score.il_components)
        )
        assert score.disclosure_risk == pytest.approx(
            sum(score.dr_components.values()) / len(score.dr_components)
        )

    def test_score_function_applied(self, small_adult):
        masked = Pram(theta=0.3).protect(small_adult, ATTRS, seed=0)
        mean_eval = ProtectionEvaluator(small_adult, ATTRS, score_function=MeanScore())
        max_eval = ProtectionEvaluator(small_adult, ATTRS, score_function=MaxScore())
        mean_score = mean_eval.evaluate(masked)
        max_score = max_eval.evaluate(masked)
        assert mean_score.score == pytest.approx(
            (mean_score.information_loss + mean_score.disclosure_risk) / 2
        )
        assert max_score.score == pytest.approx(
            max(max_score.information_loss, max_score.disclosure_risk)
        )

    def test_identity_has_zero_il(self, small_adult):
        evaluator = ProtectionEvaluator(small_adult, ATTRS)
        score = evaluator.evaluate(small_adult)
        assert score.information_loss == 0.0
        assert score.disclosure_risk > 0.0

    def test_rescore_changes_only_aggregation(self, small_adult):
        masked = Pram(theta=0.3).protect(small_adult, ATTRS, seed=0)
        max_eval = ProtectionEvaluator(small_adult, ATTRS, score_function=MaxScore())
        mean_eval = ProtectionEvaluator(small_adult, ATTRS, score_function=MeanScore())
        original = max_eval.evaluate(masked)
        rescored = mean_eval.rescore(original)
        assert rescored.information_loss == original.information_loss
        assert rescored.disclosure_risk == original.disclosure_risk
        assert rescored.score == pytest.approx(
            (original.information_loss + original.disclosure_risk) / 2
        )

    def test_needs_measures(self, small_adult):
        with pytest.raises(MetricError):
            ProtectionEvaluator(small_adult, ATTRS, il_measures=[], dr_measures=None)


class TestCaching:
    def test_cache_hit_on_identical_content(self, small_adult):
        evaluator = ProtectionEvaluator(small_adult, ATTRS)
        masked = Pram(theta=0.3).protect(small_adult, ATTRS, seed=0)
        first = evaluator.evaluate(masked)
        clone = masked.with_codes(masked.codes_copy(), name="clone")
        second = evaluator.evaluate(clone)
        assert second is first
        assert evaluator.cache_hits == 1
        assert evaluator.evaluations == 1

    def test_cache_disabled(self, small_adult):
        evaluator = ProtectionEvaluator(small_adult, ATTRS, cache_size=0)
        masked = Pram(theta=0.3).protect(small_adult, ATTRS, seed=0)
        evaluator.evaluate(masked)
        evaluator.evaluate(masked)
        assert evaluator.evaluations == 2
        assert evaluator.cache_hits == 0

    def test_cache_eviction(self, small_adult):
        evaluator = ProtectionEvaluator(small_adult, ATTRS, cache_size=2)
        maskings = [Pram(theta=0.3).protect(small_adult, ATTRS, seed=s) for s in range(3)]
        for masked in maskings:
            evaluator.evaluate(masked)
        assert evaluator.cache_info()["size"] == 2
        # Oldest entry evicted: evaluating it again is a miss.
        evaluator.evaluate(maskings[0])
        assert evaluator.evaluations == 4

    def test_negative_cache_size_rejected(self, small_adult):
        with pytest.raises(MetricError):
            ProtectionEvaluator(small_adult, ATTRS, cache_size=-1)

    def test_renamed_twin_shares_one_memo_entry(self, small_adult):
        evaluator = ProtectionEvaluator(small_adult, ATTRS)
        masked = Pram(theta=0.3).protect(small_adult, ATTRS, seed=0)
        first = evaluator.evaluate(masked)
        assert evaluator.evaluate(masked.renamed("twin")) is first
        assert evaluator.cache_info()["size"] == 1
        assert evaluator.stats()["memo_hits"] == 1


@pytest.fixture(scope="module")
def lib_flare_run():
    """The library run a perfbench ``lib-flare`` repetition makes (seed 7)."""
    from repro.experiments.runner import ExperimentConfig, run_experiment

    return run_experiment(ExperimentConfig(dataset="flare", score="max", seed=7,
                                           generations=150))


class TestMemoOnARun:
    def test_evaluation_counts_are_pinned(self, lib_flare_run):
        stats = lib_flare_run.evaluator.stats()
        assert {key: stats[key] for key in ("evaluations", "memo_hits", "batch_dedup")} == {
            "evaluations": 328, "memo_hits": 3, "batch_dedup": 3,
        }

    def test_each_memo_key_is_one_byte_per_cell(self, lib_flare_run):
        evaluator = lib_flare_run.evaluator
        cells = evaluator.original.n_records * evaluator.original.n_attributes
        assert len(evaluator._cache) == 328
        assert all(len(key) <= cells + 32 for key in evaluator._cache)


class TestPersistentKeys:
    """Persistent-cache keys hash the raw ``int64`` codes, as they always did,
    so caches written by earlier versions stay warm (values computed before
    the memo moved to narrow keys)."""

    def test_flare_keys_are_unchanged(self, flare):
        evaluator = ProtectionEvaluator(flare)
        codes = flare.codes_copy()
        codes[0, 0] = (codes[0, 0] + 1) % flare.schema.domain(0).size
        masked = flare.with_codes(codes)
        assert evaluator.config_fingerprint() == (
            "112c96687e8d86b2a03e06e06bc330283942a0648e5394520001b2cd1def357f")
        assert evaluator.cache_key(masked) == (
            "1be4a6c497a86adaeaaa9d01807db9ff667dbb4330c7a4bcf5efc56df89b41e8")


def _uint16_dataset() -> CategoricalDataset:
    """60 records whose first attribute has 300 categories (stored as uint16)."""
    schema = DatasetSchema([
        CategoricalDomain("WIDE", [f"w{i:03d}" for i in range(300)], ordinal=True),
        CategoricalDomain("SIZE", ["xs", "s", "m", "l", "xl"], ordinal=True),
        CategoricalDomain("COLOUR", ["red", "green", "blue", "grey"]),
    ])
    rng = np.random.default_rng(11)
    codes = np.column_stack([rng.integers(0, 300, size=60), rng.integers(0, 5, size=60),
                             rng.integers(0, 4, size=60)])
    codes[0, 0] = 299
    return CategoricalDataset(codes, schema, name="wide")


#: The seven measure values of :func:`_uint16_dataset`'s candidates,
#: computed while datasets stored their codes as ``int64``.
UINT16_GOLDENS = [
    {"ctbil": 26.666666666666668, "dbil": 19.055183946488295, "ebil": 39.3648882219176,
     "interval_disclosure": 75.0, "dbrl": 45.0, "prl": 71.00396825396825,
     "rsrl": 40.3994708994709},
    {"ctbil": 0.8333333333333334, "dbil": 0.1388888888888889, "ebil": 1.2169403375437848,
     "interval_disclosure": 99.44444444444444, "dbrl": 98.33333333333333,
     "prl": 98.33333333333333, "rsrl": 78.61111111111111},
    {"ctbil": 40.27777777777778, "dbil": 35.8440170940171, "ebil": 59.70971713188649,
     "interval_disclosure": 45.55555555555555, "dbrl": 10.0, "prl": 35.79040404040404,
     "rsrl": 8.427808302808302},
]


class TestUint16Goldens:
    """A narrow stored matrix must never reach integer arithmetic: at
    ``uint16`` a 300-category code times a domain size wraps, and every
    measure value would move."""

    @pytest.fixture(scope="class")
    def wide(self):
        dataset = _uint16_dataset()
        assert dataset.schema.code_dtype == "uint16"
        attrs = list(dataset.attribute_names)
        candidates = [Pram(theta=0.3).protect(dataset, attrs, seed=0),
                      mutate(dataset, attrs, seed=1),
                      Pram(theta=0.6).protect(dataset, attrs, seed=2)]
        return dataset, attrs, candidates

    @staticmethod
    def _values(score):
        return {**score.il_components, **score.dr_components}

    def test_batch_values_are_unchanged(self, wide):
        dataset, attrs, candidates = wide
        scores = ProtectionEvaluator(dataset, attrs).evaluate_many(candidates)
        assert [self._values(score) for score in scores] == UINT16_GOLDENS

    def test_single_values_are_unchanged(self, wide):
        dataset, attrs, candidates = wide
        for candidate, golden in zip(candidates, UINT16_GOLDENS, strict=True):
            assert self._values(ProtectionEvaluator(dataset, attrs).evaluate(candidate)) == golden
