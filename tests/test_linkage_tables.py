"""Per-cell linkage tables: a gathered grid is the grid, bit for bit.

DBRL, PRL and RSRL keep one row per cell of the protected attributes'
tuple space and gather a candidate's grid from it.  These tests pin the
gathered rows to the column kernels run directly and to the
distinct-tuple grids built with ``np.unique`` and outer products, on
every seed-0 candidate of the four paper datasets; and they pin the
table's lifecycle: the over-bound fallback, threads sharing a bound
measure, and pickling.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.datasets import load_dataset, protected_attributes
from repro.experiments.population_builder import build_initial_population
from repro.linkage import (
    distance_based_record_linkage,
    probabilistic_record_linkage,
    rank_swapping_record_linkage,
)
from repro.linkage.compressed import (
    CompressedPair,
    distance_columns,
    pattern_columns,
    pattern_histogram,
    rank_score_columns,
)
from repro.methods import Pram
from repro.metrics.linkage_risk import (
    TABLE_BYTES,
    DistanceLinkageRisk,
    ProbabilisticLinkageRisk,
    RankSwappingLinkageRisk,
)

DATASETS = ("flare", "adult", "german", "housing")
MEASURES = (DistanceLinkageRisk, ProbabilisticLinkageRisk, RankSwappingLinkageRisk)


def _outer_product_grids(index, masked, positions, window):
    """Distinct-tuple grids ``(u_o, u_m)`` and PRL pattern counts, built directly.

    The masked side comes from ``np.unique`` over the masked tuples; the
    counts from a ``bincount`` of the pattern grid weighted by the outer
    product of both sides' record counts.
    """
    codes = masked.codes[:, list(index.columns)]
    unique_masked, counts_masked = np.unique(codes, axis=0, return_counts=True)
    shape = (index.unique_original.shape[0], unique_masked.shape[0])
    distances = np.zeros(shape)
    patterns = np.zeros(shape, dtype=np.int64)
    scores = np.zeros(shape, dtype=np.int64)
    for slot, domain in enumerate(index.domains):
        x = index.unique_original[:, slot][:, None]
        y = unique_masked[:, slot][None, :]
        if domain.ordinal and domain.size > 1:
            distances += np.abs(x - y) / (domain.size - 1)
        else:
            distances += (x != y).astype(np.float64)
        patterns |= (x == y).astype(np.int64) << slot
        scores += (np.abs(positions[slot][x] - positions[slot][y]) <= window).astype(np.int64)
    distances /= len(index.domains)
    weights = np.outer(index.counts_original, counts_masked.astype(np.float64))
    pattern_counts = np.bincount(
        patterns.ravel(), weights=weights.ravel(), minlength=2 ** len(index.domains)
    )
    return distances, patterns, scores, pattern_counts


@pytest.mark.parametrize("name", DATASETS)
def test_gathered_rows_equal_direct_kernels_and_outer_products(name):
    original = load_dataset(name)
    attributes = protected_attributes(name)
    population = build_initial_population(original, dataset_name=name, seed=0)
    dbrl, prl, rsrl = (cls(original, attributes) for cls in MEASURES)
    index = dbrl.index
    for masked in population:
        pair = CompressedPair(index, masked)
        cells = index.cell_tuples(pair.keys)
        (distances,) = dbrl.rows(pair)
        patterns, histogram = prl.rows(pair)
        (scores,) = rsrl.rows(pair)

        assert np.array_equal(distances, distance_columns(index, cells))
        assert np.array_equal(patterns, pattern_columns(index, cells))
        assert np.array_equal(histogram, pattern_histogram(index, patterns))
        assert np.array_equal(
            scores, rank_score_columns(index, rsrl.positions, cells, rsrl.window)
        )

        grid_d, grid_p, grid_r, counts = _outer_product_grids(
            index, masked, rsrl.positions, rsrl.window
        )
        assert np.array_equal(distances, grid_d.T)
        assert np.array_equal(patterns, grid_p.T)
        assert np.array_equal(scores, grid_r.T)
        assert np.array_equal(pair.pattern_counts(histogram), counts)
    assert all(m._table.rows is not None for m in (dbrl, prl, rsrl))


def test_tables_over_the_bound_store_nothing_and_match_the_references():
    """Three 120-category attributes: 1.7M cells, far over the table bound."""
    schema = DatasetSchema(
        [
            CategoricalDomain(f"A{i}", [f"c{j}" for j in range(120)], ordinal=bool(i % 2))
            for i in range(3)
        ]
    )
    rng = np.random.default_rng(11)
    original = CategoricalDataset(rng.integers(0, 120, size=(300, 3)), schema, name="wide")
    attributes = list(schema.attribute_names)
    masked = Pram(theta=0.4).protect(original, attributes, seed=3)
    dbrl, prl, rsrl = (cls(original, attributes) for cls in MEASURES)
    for measure in (dbrl, prl, rsrl):
        assert measure.index.n_cells * measure.index.unique_original.shape[0] > TABLE_BYTES
        assert measure._table.rows is None

    assert dbrl.compute(masked) == pytest.approx(
        distance_based_record_linkage(original, masked, attributes), abs=1e-9
    )
    assert prl.compute(masked) == pytest.approx(
        probabilistic_record_linkage(original, masked, attributes), abs=1e-6
    )
    assert rsrl.compute(masked) == pytest.approx(
        rank_swapping_record_linkage(original, masked, attributes, window=0.1), abs=1e-9
    )


@pytest.fixture(scope="module")
def flare_case():
    original = load_dataset("flare")
    attributes = protected_attributes("flare")
    population = build_initial_population(original, dataset_name="flare", seed=0)
    serial = {
        cls: [cls(original, attributes).compute(masked) for masked in population]
        for cls in MEASURES
    }
    return original, attributes, population, serial


@pytest.mark.parametrize("measure_cls", MEASURES, ids=lambda c: c.measure_name)
def test_threads_sharing_a_bound_measure_score_serially(flare_case, measure_cls):
    original, attributes, population, serial = flare_case
    # A fresh measure per candidate above gives the reference; here one
    # bound measure is shared, so threads fill its cells concurrently.
    shared = measure_cls(original, attributes)
    n_threads = 4
    results: dict[int, list[float]] = {}

    def score(offset: int) -> None:
        order = [(offset + step) % len(population) for step in range(len(population))]
        values = [0.0] * len(population)
        for position in order:
            values[position] = shared.compute(population[position])
        results[offset] = values

    threads = [
        threading.Thread(target=score, args=(t * len(population) // n_threads,))
        for t in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == n_threads
    for values in results.values():
        assert values == serial[measure_cls]


@pytest.mark.parametrize("measure_cls", MEASURES, ids=lambda c: c.measure_name)
def test_pickled_measure_drops_its_rows_and_scores_identically(flare_case, measure_cls):
    original, attributes, population, serial = flare_case
    fresh_size = len(pickle.dumps(measure_cls(original, attributes)))
    scored = measure_cls(original, attributes)
    scored.compute_many(population)
    assert scored._table.filled.any()

    payload = pickle.dumps(scored)
    assert len(payload) <= 1.05 * fresh_size
    restored = pickle.loads(payload)
    assert restored._table.rows is not None and not restored._table.filled.any()
    assert [restored.compute(masked) for masked in population] == serial[measure_cls]


#: SHA-256 of each measure's seed-0 scores, batch and scalar, as the
#: float64 bytes the code before PRL's rank gather produced.
LINKAGE_GOLDENS = Path(__file__).parent / "data" / "linkage_score_goldens.json"


@pytest.mark.parametrize("name", DATASETS)
def test_seed0_scores_match_their_golden_digests(name):
    goldens = json.loads(LINKAGE_GOLDENS.read_text(encoding="utf-8"))
    original = load_dataset(name)
    attributes = protected_attributes(name)
    population = build_initial_population(original, dataset_name=name, seed=0)
    for measure_cls in MEASURES:
        batch = np.asarray(measure_cls(original, attributes).compute_many(population),
                           dtype=np.float64)
        fresh = measure_cls(original, attributes)
        scalar = np.array([fresh.compute(masked) for masked in population], dtype=np.float64)
        key = f"{name}.{measure_cls.measure_name}"
        assert hashlib.sha256(batch.tobytes()).hexdigest() == goldens[f"{key}.batch"]
        assert hashlib.sha256(scalar.tobytes()).hexdigest() == goldens[f"{key}.scalar"]
