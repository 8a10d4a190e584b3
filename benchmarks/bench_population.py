"""Initial-population build benchmark — vectorized methods and the memo.

Every run starts from the paper's §3 initial population (104 flare / 86
adult protections, most of them microaggregation and rank swapping).
This bench times, per paper dataset:

* ``reference`` — the build with the original per-group
  microaggregation loop and per-record rank-swapping candidate list
  patched back in (one run: it is the slow baseline);
* ``cold``      — the shipped build from an empty memo (median of reps);
* ``memo-hit``  — a repeat build with the same inputs, which a worker
  running several jobs on one dataset gets for free.

The cold and memo-hit outputs must equal the reference build name for
name and code for code (asserted); the timings are recorded, not
asserted.  Set ``REPRO_BENCH_POPULATION_RECORDS=200`` and
``REPRO_BENCH_POPULATION_REPS=1`` for the CI smoke run.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
from conftest import emit, record_result

from repro.data import CategoricalDataset
from repro.datasets import load_dataset
from repro.experiments import population_builder
from repro.experiments.population_builder import build_initial_population
from repro.methods.microaggregation import Microaggregation
from repro.methods.rank_swapping import RankSwapping

DATASETS = ("flare", "adult", "german", "housing")


def _records() -> int | None:
    value = os.environ.get("REPRO_BENCH_POPULATION_RECORDS", "")
    return int(value) if value else None


def _reps() -> int:
    return int(os.environ.get("REPRO_BENCH_POPULATION_REPS", "5"))


def _reference_microaggregation(self, dataset, column, rng):
    order = self._sort_order(dataset, column)
    ordinal = dataset.schema.domain(column).ordinal
    values = dataset.column(column)
    masked = values.copy()
    n, k = dataset.n_records, self.k
    bounds, start = [], 0
    while n - start >= 2 * k:
        bounds.append((start, start + k))
        start += k
    bounds.append((start, n))
    for start, stop in bounds:
        group = values[order[start:stop]]
        masked[order[start:stop]] = (
            int(np.median(group)) if ordinal else int(np.argmax(np.bincount(group)))
        )
    return masked


def _reference_rank_swapping(self, dataset, column, rng):
    values = dataset.column(column)
    n = values.shape[0]
    window = max(1, int(round(n * self.p / 100.0)))
    order = np.lexsort((rng.permutation(n), values))
    swapped = values[order].copy()
    taken = np.zeros(n, dtype=bool)
    for i in range(n):
        if taken[i]:
            continue
        candidates = [j for j in range(i + 1, min(n - 1, i + window) + 1) if not taken[j]]
        taken[i] = True
        if candidates:
            j = candidates[int(rng.integers(len(candidates)))]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            taken[j] = True
    masked = np.empty(n, dtype=np.int64)
    masked[order] = swapped
    return masked


@contextmanager
def _reference_methods():
    with mock.patch.object(Microaggregation, "protect_column", _reference_microaggregation), \
            mock.patch.object(RankSwapping, "protect_column", _reference_rank_swapping):
        yield


def _original(name: str) -> CategoricalDataset:
    full = load_dataset(name)
    records = _records()
    if records is None:
        return full
    return CategoricalDataset(full.codes[:records], full.schema, name=f"{name}-{records}")


def _cold_build(original: CategoricalDataset, name: str) -> tuple[float, list]:
    population_builder._MEMO = None
    start = time.perf_counter()
    protections = build_initial_population(original, dataset_name=name, seed=0)
    return time.perf_counter() - start, protections


def _same(a: list, b: list) -> bool:
    return [p.name for p in a] == [p.name for p in b] and all(
        np.array_equal(x.codes, y.codes) for x, y in zip(a, b)
    )


def test_bench_population_build():
    rows = []
    for name in DATASETS:
        original = _original(name)
        with _reference_methods():
            reference_s, reference = _cold_build(original, name)
        population_builder._MEMO = None

        cold_times = []
        for _ in range(_reps()):
            seconds, protections = _cold_build(original, name)
            cold_times.append(seconds)
            assert _same(protections, reference), f"{name}: vectorized build differs"

        hit_times = []
        for _ in range(_reps()):
            start = time.perf_counter()
            hit = build_initial_population(original, dataset_name=name, seed=0)
            hit_times.append(time.perf_counter() - start)
            assert _same(hit, reference), f"{name}: memo hit differs"

        cold_s = statistics.median(cold_times)
        hit_s = statistics.median(hit_times)
        speedup = reference_s / cold_s if cold_s else float("inf")
        record_result("population", f"reference-{original.name}", reference_s)
        record_result("population", f"cold-{original.name}", cold_s, ratio=speedup)
        record_result("population", f"memo-hit-{original.name}", hit_s)
        rows.append(
            f"{original.name:12s} n={original.n_records:5d} pop={len(reference):4d}  "
            f"reference={reference_s:6.3f}s  cold={cold_s:6.3f}s ({speedup:4.1f}x)  "
            f"memo-hit={hit_s * 1000:7.3f}ms"
        )
    population_builder._MEMO = None
    emit(f"initial-population build ({os.cpu_count()} cores)", "\n".join(rows))
