"""Batch-first evaluation: ``evaluate_many`` ≡ mapped ``evaluate``, exactly.

The batch protocol's contract is bit-identity: for every measure and
every score function, scoring a batch must return exactly what scoring
each candidate alone returns — same floats, same components — whatever
the batch composition, chunking, executor, or cache state.  These tests
pin that contract for every IL/DR measure, the full evaluator, the
batched Fellegi–Sunter EM, and the bulk cache surface.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import obs
from repro.data import CategoricalDataset
from repro.linkage.prl import fit_fellegi_sunter, fit_fellegi_sunter_many
from repro.metrics.evaluation import (
    ProtectionEvaluator,
    default_dr_measures,
    default_il_measures,
)
from repro.metrics.score import score_function_by_name
from repro.service.backends import create_backend
from repro.service.cache import EvaluationCache

ATTRS = ["EDUCATION", "MARITAL-STATUS", "OCCUPATION"]


def random_maskings(original: CategoricalDataset, count: int, seed: int = 0,
                    flip_fraction: float = 0.2) -> list[CategoricalDataset]:
    """Valid random maskings: flip a fraction of protected cells."""
    rng = np.random.default_rng(seed)
    columns = [original.schema.index_of(a) for a in ATTRS]
    out = []
    for index in range(count):
        codes = original.codes_copy()
        for col in columns:
            size = original.schema.domain(col).size
            mask = rng.random(original.n_records) < flip_fraction
            codes[mask, col] = rng.integers(0, size, size=int(mask.sum()))
        out.append(original.with_codes(codes, name=f"mask-{index}"))
    return out


@pytest.fixture(scope="module")
def batch_data(request):
    adult = request.getfixturevalue("small_adult")
    return adult, random_maskings(adult, 12, seed=3)


ALL_MEASURES = ["ctbil", "dbil", "ebil", "interval_disclosure", "dbrl", "prl", "rsrl"]


def measures_by_name(original):
    stack = default_il_measures(original, ATTRS) + default_dr_measures(original, ATTRS)
    return {m.measure_name: m for m in stack}


class TestMeasureBatchEquivalence:
    @pytest.mark.parametrize("name", ALL_MEASURES)
    def test_batch_equals_mapped_scalar(self, batch_data, name):
        original, maskings = batch_data
        measure = measures_by_name(original)[name]
        scalar = np.array([measure.compute(m) for m in maskings])
        batch = measure.compute_many(maskings)
        assert batch.dtype == np.float64
        assert np.array_equal(scalar, batch), f"{name}: batch diverged from scalar"

    @pytest.mark.parametrize("name", ALL_MEASURES)
    def test_chunk_boundaries_do_not_matter(self, batch_data, name):
        original, maskings = batch_data
        measure = measures_by_name(original)[name]
        full = measure.compute_many(maskings)
        split = np.concatenate(
            [measure.compute_many(maskings[:5]), measure.compute_many(maskings[5:])]
        )
        assert np.array_equal(full, split), f"{name}: chunk-dependent results"

    @pytest.mark.parametrize("name", ALL_MEASURES)
    def test_empty_and_singleton(self, batch_data, name):
        original, maskings = batch_data
        measure = measures_by_name(original)[name]
        assert measure.compute_many([]).shape == (0,)
        single = measure.compute_many([maskings[0]])
        assert single.shape == (1,)
        assert single[0] == measure.compute(maskings[0])

    def test_identity_masking_extremes(self, batch_data):
        """The identity batch hits the documented endpoints, batched too."""
        original, __ = batch_data
        stack = measures_by_name(original)
        identity = [original.with_codes(original.codes_copy(), name="same")]
        assert stack["dbil"].compute_many(identity)[0] == 0.0
        assert stack["ctbil"].compute_many(identity)[0] == 0.0
        assert stack["interval_disclosure"].compute_many(identity)[0] == 100.0


class TestBatchEM:
    def test_batched_fit_is_row_independent(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 5000, size=(16, 8)).astype(np.float64)
        counts[:, 0] += 1  # never all-zero rows
        batch = fit_fellegi_sunter_many(counts, 3)
        for row in range(counts.shape[0]):
            single = fit_fellegi_sunter(counts[row], 3)
            assert np.array_equal(single.m, batch.m[row])
            assert np.array_equal(single.u, batch.u[row])
            assert single.match_proportion == batch.match_proportion[row]
            assert np.array_equal(single.pattern_weights, batch.pattern_weights[row])

    def test_shape_validation(self):
        from repro.exceptions import LinkageError

        with pytest.raises(LinkageError):
            fit_fellegi_sunter_many(np.ones((2, 7)), 3)
        with pytest.raises(LinkageError):
            fit_fellegi_sunter_many(np.zeros((2, 8)), 3)


def _em_counts() -> np.ndarray:
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 5000, size=(6, 8)).astype(np.float64)
    counts[:, 0] += 1
    return counts


def _fit_key(model) -> tuple[bytes, ...]:
    return tuple(np.ascontiguousarray(a).tobytes() for a in
                 (model.m, model.u, model.match_proportion, model.pattern_weights))


def _fit_row(row: np.ndarray, cap: int) -> tuple[bytes, ...]:
    return _fit_key(fit_fellegi_sunter_many(row[None, :], 3, max_iterations=cap))


def _iterations_to_settle(row: np.ndarray, cap: int) -> int:
    """Reference count: the smallest cap whose fit equals the cap-``cap`` fit.

    Every EM step moves the parameters, so a row stopped after t steps
    fits differently under every cap below t: bisect for t.
    """
    final = _fit_row(row, cap)
    low, high = 1, cap
    while low < high:
        middle = (low + high) // 2
        if _fit_row(row, middle) == final:
            high = middle
        else:
            low = middle + 1
    return low


def _still_moving(row: np.ndarray, cap: int) -> bool:
    return _fit_row(row, cap) != _fit_row(row, cap + 1)


class TestEMTelemetry:
    @pytest.fixture
    def registry(self):
        registry = obs.enable()
        registry.reset()
        yield registry
        obs.disable()
        registry.reset()

    @staticmethod
    def _series(registry) -> tuple[dict, float]:
        snapshot = registry.snapshot()
        (histogram,) = [h for h in snapshot["histograms"] if h["name"] == "repro_em_iterations"]
        unconverged = sum(c["value"] for c in snapshot["counters"]
                          if c["name"] == "repro_em_unconverged_total")
        return histogram, unconverged

    @pytest.mark.parametrize("cap,tolerance", [(200, 1e-8), (7, 1e-8), (30, 0.0)])
    def test_fits_bit_identical_with_telemetry_on_and_off(self, cap, tolerance):
        counts = _em_counts()
        obs.disable()
        off = fit_fellegi_sunter_many(counts, 3, max_iterations=cap, tolerance=tolerance)
        registry = obs.enable()
        try:
            on = fit_fellegi_sunter_many(counts, 3, max_iterations=cap, tolerance=tolerance)
        finally:
            obs.disable()
            registry.reset()
        assert _fit_key(on) == _fit_key(off)

    def test_iteration_counts_per_row(self, registry):
        counts = _em_counts()
        cap = 200
        expected = [_iterations_to_settle(row, cap) for row in counts]
        moving = sum(_still_moving(row, cap) for row in counts)
        assert 0 < moving < counts.shape[0]  # the fixture mixes both kinds
        registry.reset()  # the reference fits above observed too
        fit_fellegi_sunter_many(counts, 3, max_iterations=cap)
        histogram, unconverged = self._series(registry)
        assert histogram["bounds"] == [float(b) for b in obs.DEFAULT_SIZE_BUCKETS]
        assert histogram["count"] == counts.shape[0]
        assert histogram["sum"] == sum(expected)
        assert unconverged == moving

    def test_cap_counts_every_moving_row_unconverged(self, registry):
        counts = _em_counts()
        fit_fellegi_sunter_many(counts, 3, max_iterations=3)
        histogram, unconverged = self._series(registry)
        assert histogram["count"] == counts.shape[0]
        assert histogram["sum"] == 3 * counts.shape[0]
        assert unconverged == counts.shape[0]

    def test_tolerance_zero_runs_clean_under_warnings_as_errors(self, registry):
        counts = _em_counts()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_fellegi_sunter_many(counts, 3, max_iterations=12, tolerance=0.0)
        assert np.isfinite(model.pattern_weights).all()
        histogram, unconverged = self._series(registry)
        assert histogram["sum"] == 12 * counts.shape[0]
        assert unconverged == counts.shape[0]


class TestEvaluatorBatch:
    @pytest.mark.parametrize("score", ["mean", "max", "weighted", "power_mean"])
    def test_evaluate_many_equals_mapped_evaluate(self, batch_data, score):
        original, maskings = batch_data
        reference = ProtectionEvaluator(
            original, ATTRS, score_function=score_function_by_name(score)
        )
        batched = ProtectionEvaluator(
            original, ATTRS, score_function=score_function_by_name(score)
        )
        scalar_scores = [reference.evaluate(m) for m in maskings]
        batch_scores = batched.evaluate_many(maskings)
        assert batch_scores == scalar_scores  # frozen dataclass equality: exact

    def test_empty_batch(self, batch_data):
        original, __ = batch_data
        assert ProtectionEvaluator(original, ATTRS).evaluate_many([]) == []

    def test_all_duplicates_scored_once(self, batch_data):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        same = [maskings[0]] * 5
        scores = evaluator.evaluate_many(same)
        assert len(scores) == 5
        assert all(s == scores[0] for s in scores)
        assert evaluator.evaluations == 1
        assert evaluator.batch_dedup == 4
        # A distinct-content copy dedupes too (fingerprint, not identity).
        copy = original.with_codes(maskings[0].codes_copy(), name="copy")
        evaluator.evaluate_many([maskings[0], copy])
        assert evaluator.evaluations == 1  # memo hit, no fresh work
        assert evaluator.stats()["batch_dedup"] == 5

    def test_counters_match_scalar_semantics(self, batch_data):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        evaluator.evaluate_many(maskings[:4])
        stats = evaluator.stats()
        assert {k: stats[k] for k in
                ("evaluations", "memo_hits", "persistent_hits", "batch_dedup")} == {
            "evaluations": 4, "memo_hits": 0, "persistent_hits": 0, "batch_dedup": 0,
        }
        assert stats["batches"] == 1
        assert stats["max_batch_size"] == 4
        assert stats["fresh_seconds"] > 0
        evaluator.evaluate_many(maskings[:4])  # all memo hits now
        assert evaluator.stats()["memo_hits"] == 4
        assert evaluator.stats()["evaluations"] == 4
        # The scalar path feeds the same counters.
        evaluator.evaluate(maskings[0])
        assert evaluator.stats()["memo_hits"] == 5

    def test_cache_disabled_still_dedupes(self, batch_data):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS, cache_size=0)
        scores = evaluator.evaluate_many([maskings[0], maskings[0], maskings[1]])
        assert evaluator.evaluations == 2
        assert evaluator.batch_dedup == 1
        assert scores[0] == scores[1]

    def test_mixed_memo_persistent_fresh(self, batch_data, tmp_path):
        """One batch resolving through all three layers stays exact."""
        original, maskings = batch_data
        cache = EvaluationCache(tmp_path / "evals.sqlite")
        warm = ProtectionEvaluator(original, ATTRS, persistent_cache=cache)
        warm.evaluate_many(maskings[:3])  # persist 3

        evaluator = ProtectionEvaluator(original, ATTRS, persistent_cache=cache)
        evaluator.evaluate_many(maskings[1:2])  # memo-load one of them
        scores = evaluator.evaluate_many(maskings[:6])
        assert evaluator.stats()["memo_hits"] == 1
        assert evaluator.stats()["persistent_hits"] == 2 + 1  # 2 here, 1 earlier
        reference = ProtectionEvaluator(original, ATTRS)
        assert scores == [reference.evaluate(m) for m in maskings[:6]]
        cache.close()

    def test_plain_scorecache_without_bulk_surface(self, batch_data):
        """A get/put-only ScoreCache still works through the fallback."""
        original, maskings = batch_data

        class DictCache:
            def __init__(self):
                self.data = {}
                self.gets = 0

            def get(self, key):
                self.gets += 1
                return self.data.get(key)

            def put(self, key, score):
                self.data[key] = score

        store = DictCache()
        evaluator = ProtectionEvaluator(original, ATTRS, persistent_cache=store)
        evaluator.evaluate_many(maskings[:3])
        assert len(store.data) == 3
        fresh = ProtectionEvaluator(original, ATTRS, persistent_cache=store)
        fresh.evaluate_many(maskings[:3])
        assert fresh.persistent_hits == 3
        assert fresh.evaluations == 0


class TestExecutors:
    @pytest.mark.parametrize("backend,workers", [("thread", 2), ("thread", 4)])
    def test_thread_executor_identical(self, batch_data, backend, workers):
        original, maskings = batch_data
        reference = ProtectionEvaluator(original, ATTRS)
        parallel = ProtectionEvaluator(
            original, ATTRS, executor=create_backend(backend, max_workers=workers)
        )
        assert parallel.evaluate_many(maskings) == [
            reference.evaluate(m) for m in maskings
        ]

    def test_process_executor_identical(self, batch_data):
        original, maskings = batch_data
        reference = ProtectionEvaluator(original, ATTRS)
        parallel = ProtectionEvaluator(
            original, ATTRS, executor=create_backend("process", max_workers=2)
        )
        assert parallel.evaluate_many(maskings[:6]) == [
            reference.evaluate(m) for m in maskings[:6]
        ]

    def test_singleton_skips_executor(self, batch_data):
        original, maskings = batch_data

        class ExplodingExecutor:
            max_workers = 2

            def map(self, fn, items):  # pragma: no cover - must not run
                raise AssertionError("executor used for a singleton batch")

        evaluator = ProtectionEvaluator(original, ATTRS, executor=ExplodingExecutor())
        reference = ProtectionEvaluator(original, ATTRS)
        assert evaluator.evaluate_many([maskings[0]]) == [reference.evaluate(maskings[0])]


class TestCacheBulkSurface:
    def test_get_many_put_many_roundtrip(self, batch_data, tmp_path):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        scores = evaluator.evaluate_many(maskings[:4])
        keys = [evaluator.cache_key(m) for m in maskings[:4]]
        cache = EvaluationCache(tmp_path / "bulk.sqlite")
        cache.put_many(list(zip(keys, scores)))
        assert cache.writes == 4
        assert len(cache) == 4
        found = cache.get_many(keys + ["missing-key"])
        assert set(found) == set(keys)
        assert [found[k] for k in keys] == scores
        assert cache.hits == 4 and cache.misses == 1
        # Singleton surface agrees with the bulk one.
        assert cache.get(keys[0]) == scores[0]
        cache.close()

    def test_put_many_counts_overwrites_once(self, batch_data, tmp_path):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        scores = evaluator.evaluate_many(maskings[:3])
        keys = [evaluator.cache_key(m) for m in maskings[:3]]
        cache = EvaluationCache(tmp_path / "bulk.sqlite")
        cache.put_many(list(zip(keys, scores)))
        cache.put_many(list(zip(keys, scores)))  # overwrite, not growth
        assert len(cache) == 3
        cache.close()

    def test_put_many_respects_lru_bound(self, batch_data, tmp_path):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        scores = evaluator.evaluate_many(maskings[:6])
        keys = [evaluator.cache_key(m) for m in maskings[:6]]
        cache = EvaluationCache(tmp_path / "bounded.sqlite", max_entries=4)
        cache.put_many(list(zip(keys, scores)))
        assert len(cache) == 4
        assert cache.evictions == 2
        cache.close()

    def test_readonly_put_many_noop(self, batch_data, tmp_path):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        (score,) = evaluator.evaluate_many(maskings[:1])
        path = tmp_path / "ro.sqlite"
        EvaluationCache(path).close()
        cache = EvaluationCache(path, readonly=True)
        cache.put_many([("k", score)])
        assert len(cache) == 0
        cache.close()
