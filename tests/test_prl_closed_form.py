"""The closed-form Fellegi–Sunter fit for ``a = 3`` and its routing.

Every paper dataset links on three attributes, where the two-class
model is just-identified: an interior maximum reproduces the pattern
frequencies and reaches the saturated log-likelihood ``sum c log(c/N)``.
These tests pin that certified rows really are there, that they beat
a long EM, that the route a row takes never depends on its batch, and
that every row with a zero pattern cell is exactly the capped EM's fit.
The boundary route has its own tests in ``test_prl_boundary.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.exceptions import LinkageError
from repro.linkage.prl import (
    _fit_em_many,
    _loglik_gaps,
    _pattern_bits,
    fit_fellegi_sunter,
    fit_fellegi_sunter_many,
)

DATASETS = ["flare", "adult", "german", "housing"]


@pytest.fixture(scope="module")
def population_counts(prl_population_counts) -> dict[str, np.ndarray]:
    return prl_population_counts


def _routes(counts: np.ndarray) -> np.ndarray:
    """Per row, the ``repro_em_fits_total`` method a one-row fit counts."""
    registry = obs.enable()
    try:
        routes = []
        for row in counts:
            registry.reset()
            fit_fellegi_sunter_many(row[None, :], counts.shape[1].bit_length() - 1)
            (counter,) = [c for c in registry.snapshot()["counters"]
                          if c["name"] == "repro_em_fits_total"]
            routes.append(counter["labels"]["method"])
    finally:
        obs.disable()
        registry.reset()
    return np.array(routes)


@pytest.fixture(scope="module")
def population_routes(population_counts) -> dict[str, np.ndarray]:
    """Per dataset and row, True when the row takes the closed form."""
    return {name: _routes(counts) == "closed_form"
            for name, counts in population_counts.items()}


def _bound(counts: np.ndarray, model) -> np.ndarray:
    bits = _pattern_bits(counts.shape[1].bit_length() - 1).astype(np.float64)
    bound, _ = _loglik_gaps(counts, bits, model.m, model.u, model.match_proportion)
    return bound


def _row_bytes(model, row: int) -> tuple[bytes, ...]:
    return tuple(np.ascontiguousarray(a[row]).tobytes() for a in
                 (model.m, model.u, model.match_proportion,
                  model.pattern_weights, model.loglik_gap))


def _mixed(table: dict[str, np.ndarray]) -> np.ndarray:
    """Flare then housing rows (counts or routes): closed-form and boundary rows."""
    return np.concatenate([table["flare"], table["housing"]])


def _with_zero_cells(counts: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``_mixed`` counts with one zero cell in every third row (two in every
    sixth), and those rows' indices: all three routes occur."""
    mixed = _mixed(counts).copy()
    zero = np.arange(0, mixed.shape[0], 3)
    mixed[zero, zero % 8] = 0
    mixed[zero[::2], (zero[::2] + 3) % 8] = 0
    return mixed, zero


class TestCertifiedRows:
    @pytest.mark.parametrize("name", DATASETS)
    def test_certified_rows_reach_the_saturated_bound(self, population_counts,
                                                      population_routes, name):
        counts, closed = population_counts[name], population_routes[name]
        assert closed.any()
        model = fit_fellegi_sunter_many(counts, 3)
        bound = _bound(counts, model)
        relative = np.abs(model.loglik_gap[closed]) / np.abs(bound[closed])
        assert relative.max() <= 1e-6

    @pytest.mark.parametrize("name", DATASETS)
    def test_closed_form_beats_a_long_em(self, population_counts, population_routes,
                                         name):
        counts, closed = population_counts[name], population_routes[name]
        model = fit_fellegi_sunter_many(counts[closed], 3)
        long_em = _fit_em_many(counts[closed], 3, max_iterations=20_000)
        # Same bound for both, so a smaller gap is a larger loglik.
        assert (model.loglik_gap <= long_em.loglik_gap).all()

    @pytest.mark.parametrize("name", DATASETS)
    def test_matches_are_the_minority_class(self, population_counts,
                                            population_routes, name):
        counts, closed = population_counts[name], population_routes[name]
        model = fit_fellegi_sunter_many(counts[closed], 3)
        assert (model.match_proportion > 0).all()
        assert (model.match_proportion < 0.5).all()

    def test_gap_is_reported_for_every_row(self, population_counts, population_routes):
        counts = _mixed(population_counts)
        model = fit_fellegi_sunter_many(counts, 3)
        assert model.loglik_gap.shape == (counts.shape[0],)
        assert np.isfinite(model.loglik_gap).all()
        # A boundary row sits below the bound, and never further below
        # it than the capped EM would have stopped.
        boundary = ~_mixed(population_routes)
        capped = _fit_em_many(counts[boundary], 3)
        assert (model.loglik_gap[boundary] >= 0).all()
        assert (model.loglik_gap[boundary] <= capped.loglik_gap).all()


class TestRouting:
    def test_population_mixes_both_routes(self, population_counts):
        # The populations' rows all have pairs in every cell, so each
        # takes the closed form or the boundary fit, never the EM.
        counts = _mixed(population_counts)
        routes = _routes(counts)
        closed, boundary = routes == "closed_form", routes == "boundary"
        assert closed.any() and boundary.any()
        assert (closed | boundary).all()
        # Routing a whole batch counts the same split as row by row.
        registry = obs.enable()
        try:
            registry.reset()
            fit_fellegi_sunter_many(_mixed(population_counts), 3)
            counters = {c["labels"]["method"]: c["value"]
                        for c in registry.snapshot()["counters"]
                        if c["name"] == "repro_em_fits_total"}
        finally:
            obs.disable()
            registry.reset()
        assert counters == {"closed_form": closed.sum(), "boundary": boundary.sum()}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_scalar_in_any_row_order(self, population_counts, seed):
        counts, _ = _with_zero_cells(population_counts)
        order = np.random.default_rng(seed).permutation(counts.shape[0])
        shuffled = counts[order]
        model = fit_fellegi_sunter_many(shuffled, 3)
        for row in range(shuffled.shape[0]):
            single = fit_fellegi_sunter(shuffled[row], 3)
            assert np.array_equal(single.m, model.m[row])
            assert np.array_equal(single.u, model.u[row])
            assert single.match_proportion == model.match_proportion[row]
            assert np.array_equal(single.pattern_weights, model.pattern_weights[row])
            assert single.loglik_gap == model.loglik_gap[row]

    def test_zero_cell_rows_are_the_capped_em_fit(self, population_counts):
        counts, zero = _with_zero_cells(population_counts)
        assert (_routes(counts[zero]) == "em").all()
        model = fit_fellegi_sunter_many(counts, 3)
        em = _fit_em_many(counts[zero], 3)
        for position, row in enumerate(zero):
            assert _row_bytes(model, row) == _row_bytes(em, position)
            alone = _fit_em_many(counts[row][None, :], 3)
            assert _row_bytes(model, row) == _row_bytes(alone, 0)

    @pytest.mark.parametrize("n_attributes", [1, 2, 4])
    def test_other_attribute_counts_take_the_em_unchanged(self, n_attributes):
        rng = np.random.default_rng(n_attributes)
        counts = rng.integers(0, 5000, size=(5, 2**n_attributes)).astype(np.float64)
        counts[:, 0] += 1
        model = fit_fellegi_sunter_many(counts, n_attributes)
        em = _fit_em_many(counts, n_attributes)
        for row in range(counts.shape[0]):
            assert _row_bytes(model, row) == _row_bytes(em, row)
        assert (_routes(counts) == "em").all()


class TestValidation:
    @pytest.mark.parametrize("n_attributes", [2, 3])
    def test_bad_shapes_raise(self, n_attributes):
        cells = 2**n_attributes
        with pytest.raises(LinkageError):
            fit_fellegi_sunter_many(np.ones((2, cells - 1)), n_attributes)
        with pytest.raises(LinkageError):
            fit_fellegi_sunter_many(np.ones(cells), n_attributes)
        with pytest.raises(LinkageError):
            fit_fellegi_sunter(np.ones((1, cells)), n_attributes)

    @pytest.mark.parametrize("n_attributes", [2, 3])
    def test_zero_totals_raise(self, n_attributes):
        counts = np.ones((3, 2**n_attributes))
        counts[1] = 0
        with pytest.raises(LinkageError):
            fit_fellegi_sunter_many(counts, n_attributes)
        with pytest.raises(LinkageError):
            fit_fellegi_sunter(np.zeros(2**n_attributes), n_attributes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5.0])
    def test_non_finite_and_negative_counts_raise(self, bad):
        counts = np.full((2, 8), 10.0)
        counts[1, 0] = bad
        for fit in (fit_fellegi_sunter_many, _fit_em_many):
            with pytest.raises(LinkageError):
                fit(counts, 3)
        with pytest.raises(LinkageError):
            fit_fellegi_sunter(counts[1], 3)

    def test_empty_batch(self):
        model = fit_fellegi_sunter_many(np.zeros((0, 8)), 3)
        assert model.m.shape == (0, 3)
        assert model.loglik_gap.shape == (0,)
