"""The boundary-stratum fit of the ``a = 3`` Fellegi–Sunter model.

A row with every pattern cell > 0 and no certified interior solution
takes the best of the boundary strata's closed-form fits, accepted only
under a first-order (KKT) certificate.  These tests pin that each
stratum's fit is exact on its own model, that accepted rows are at
least as good as long and multi-start EM runs, and that the certificate
holds under an independent gradient and refuses rows it should.
Batch == scalar over all three routes and the zero-cell EM fallback
are pinned in ``test_prl_closed_form.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.metrics.linkage_risk as linkage_risk
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.linkage.prl import (
    _boundary_candidates,
    _boundary_fit,
    _closed_form,
    _fit_em_many,
    _loglik_gaps,
    _pattern_bits,
    fit_fellegi_sunter_many,
)

BITS = _pattern_bits(3).astype(np.float64)
DATASETS = ["flare", "adult", "german", "housing"]


def _strata() -> list[tuple[str, dict[int, int], dict[int, int], list[int]]]:
    """``(id, C's fixed bits, D's fixed bits, candidate columns)`` of the 29 strata."""
    strata = []
    for k in range(3):
        for v in (0, 1):
            strata.append((f"F1-bit{k}-never{v}", {}, {k: 1 - v}, [2 * k + v]))
    for k in range(3):
        strata.append((f"F2-bit{k}", {k: 1}, {k: 0}, [6 + k]))
    column = 9
    for j, k in ((0, 1), (0, 2), (1, 2)):
        for alpha in (0, 1):
            for beta in (0, 1):
                strata.append((f"F3-bits{j}{k}-at{alpha}{beta}", {},
                               {j: alpha, k: beta}, [column]))
                column += 1
    for x in range(8):
        strata.append((f"F4-pattern{x}", {}, {k: x >> k & 1 for k in range(3)},
                       [21 + 2 * x, 22 + 2 * x]))
    return strata


STRATA = _strata()


def _mixture(pi, m, u) -> np.ndarray:
    """Pattern probabilities of the mixture, broadcasting over leading axes."""
    m_side = np.where(BITS > 0, m[..., None, :], 1 - m[..., None, :]).prod(axis=-1)
    u_side = np.where(BITS > 0, u[..., None, :], 1 - u[..., None, :]).prod(axis=-1)
    return pi[..., None] * m_side + (1 - pi[..., None]) * u_side


def _loglik(counts, pi, m, u) -> np.ndarray:
    return (counts * np.log(_mixture(pi, m, u))).sum(axis=-1)


def _boundary_rows(counts: np.ndarray) -> np.ndarray:
    """Rows the boundary route fits: no certified closed form, every cell > 0, certified."""
    with np.errstate(all="ignore"):
        _, closed = _closed_form(counts, BITS)
        _, certified = _boundary_fit(counts, BITS)
    return ~closed & (counts > 0).all(axis=1) & certified


def _dirichlet_rows(seed: int, rows: int) -> np.ndarray:
    """All-positive random pattern counts with no certified interior solution."""
    counts = np.random.default_rng(seed).dirichlet(np.full(8, 0.7), size=rows) * 1e5
    with np.errstate(all="ignore"):
        _, closed = _closed_form(counts, BITS)
    return counts[~closed & (counts > 0).all(axis=1)]


def _em(counts, pi, m, u, iterations: int):
    """Plain EM from the given start (reference only: no clipping, no stopping)."""
    totals = counts.sum(axis=-1)
    for _ in range(iterations):
        m_side = np.where(BITS > 0, m[:, None, :], 1 - m[:, None, :]).prod(axis=-1)
        u_side = np.where(BITS > 0, u[:, None, :], 1 - u[:, None, :]).prod(axis=-1)
        match = pi[:, None] * m_side
        responsibility = match / (match + (1 - pi[:, None]) * u_side)
        weighted = counts * responsibility
        pi = weighted.sum(axis=-1) / totals
        m = weighted @ BITS / weighted.sum(axis=-1, keepdims=True)
        u = (counts - weighted) @ BITS / (counts - weighted).sum(axis=-1, keepdims=True)
    return pi, m, u


@pytest.fixture(scope="module")
def flare_run_counts() -> np.ndarray:
    """Distinct PRL rows a 300-generation flare run fits."""
    seen = []
    fit = linkage_risk.fit_fellegi_sunter_many

    def recording(counts, n_attributes, **kwargs):
        seen.append(np.array(counts, dtype=np.float64))
        return fit(counts, n_attributes, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linkage_risk, "fit_fellegi_sunter_many", recording)
        run_experiment(ExperimentConfig(dataset="flare", score="max", seed=0,
                                        generations=300))
    return np.unique(np.concatenate(seen), axis=0)


@pytest.fixture(scope="module")
def paper_rows(prl_population_counts, flare_run_counts) -> dict[str, np.ndarray]:
    return {**prl_population_counts, "flare-300": flare_run_counts}


class TestExactRecovery:
    @pytest.mark.parametrize("stratum", STRATA, ids=[s[0] for s in STRATA])
    def test_stratum_parameters_are_recovered(self, stratum):
        name, c_fixed, d_fixed, columns = stratum
        index = STRATA.index(stratum)
        rng = np.random.default_rng(index)
        c, d = rng.uniform(0.15, 0.85, 3), rng.uniform(0.15, 0.85, 3)
        for bit, value in c_fixed.items():
            c[bit] = value
        for bit, value in d_fixed.items():
            d[bit] = value
        weight = 0.3 if index % 2 else 0.7  # C is the match class half the time
        pi, m, u = (weight, c, d) if weight < 0.5 else (1 - weight, d, c)
        frequencies = _mixture(np.array(weight), c, d)
        counts = 1e6 * frequencies[None, :]

        cand_pi, cand_m, cand_u = _boundary_candidates(frequencies[None, :])
        assert any(abs(cand_pi[0, g] - pi) <= 1e-9
                   and np.allclose(cand_m[0, g], m, rtol=0, atol=1e-9)
                   and np.allclose(cand_u[0, g], u, rtol=0, atol=1e-9)
                   for g in columns), name

        model = fit_fellegi_sunter_many(counts, 3)
        bound, _ = _loglik_gaps(counts, BITS, model.m, model.u, model.match_proportion)
        assert model.match_proportion[0] == pytest.approx(pi, abs=1e-9)
        assert np.allclose(model.m[0], m, rtol=0, atol=1e-9)
        assert np.allclose(model.u[0], u, rtol=0, atol=1e-9)
        assert abs(model.loglik_gap[0]) <= 1e-9 * abs(bound[0])


class TestAgainstEM:
    @pytest.mark.parametrize("name", [*DATASETS, "flare-300"])
    def test_paper_rows_are_certified(self, paper_rows, name):
        counts = paper_rows[name]
        model = fit_fellegi_sunter_many(counts, 3)
        bound, _ = _loglik_gaps(counts, BITS, model.m, model.u, model.match_proportion)
        at_bound = np.abs(model.loglik_gap) <= 1e-6 * np.abs(bound)
        assert (at_bound | _boundary_rows(counts)).mean() >= 0.99

    @pytest.mark.parametrize("name", [*DATASETS, "flare-300"])
    def test_boundary_rows_beat_a_long_em(self, paper_rows, name):
        counts = paper_rows[name]
        boundary = _boundary_rows(counts)
        if name != "adult":
            assert boundary.sum() >= 10
        model = fit_fellegi_sunter_many(counts[boundary], 3)
        long_em = _fit_em_many(counts[boundary], 3, max_iterations=20_000)
        bound, _ = _loglik_gaps(counts[boundary], BITS, model.m, model.u,
                                model.match_proportion)
        # Same bound for both, so the gaps compare the log-likelihoods.
        assert (model.loglik_gap <= long_em.loglik_gap + 1e-6 * np.abs(bound)).all()

    def test_random_rows_beat_the_best_of_several_em_starts(self):
        counts = _dirichlet_rows(seed=11, rows=60)
        assert _boundary_rows(counts).all()
        model = fit_fellegi_sunter_many(counts, 3)
        fitted = _loglik(counts, model.match_proportion, model.m, model.u)
        rng = np.random.default_rng(12)
        best = np.full(counts.shape[0], -np.inf)
        for _ in range(8):
            start_pi = rng.uniform(0.05, 0.45, counts.shape[0])
            start_m = rng.uniform(0.05, 0.95, (counts.shape[0], 3))
            start_u = rng.uniform(0.05, 0.95, (counts.shape[0], 3))
            pi, m, u = _em(counts, start_pi, start_m, start_u, iterations=3000)
            best = np.maximum(best, _loglik(counts, pi, m, u))
        assert (fitted >= best - 1e-6 * np.abs(best)).all()


class TestCertificate:
    @staticmethod
    def _gradient(counts: np.ndarray, pi: float, m: np.ndarray, u: np.ndarray):
        """Complex-step gradient of the log-likelihood in ``(π, m, u)``."""
        params = np.concatenate([[pi], m, u]).astype(complex)
        gradient = np.empty(7)
        for i in range(7):
            step = params.copy()
            step[i] += 1e-30j
            gradient[i] = _loglik(counts, step[0], step[1:4], step[4:]).imag / 1e-30
        return np.concatenate([[pi], m, u]), gradient

    def test_kkt_holds_on_every_accepted_row(self, prl_population_counts):
        counts = np.concatenate([*prl_population_counts.values(),
                                 _dirichlet_rows(seed=13, rows=100)])
        rows = np.flatnonzero(_boundary_rows(counts))
        assert rows.size > 100
        model = fit_fellegi_sunter_many(counts[rows], 3)
        for position, row in enumerate(rows):
            params, gradient = self._gradient(counts[row], model.match_proportion[position],
                                              model.m[position], model.u[position])
            tol = 1e-7 * counts[row].sum()
            assert 0 < params[0] < 0.5
            upper, lower = params >= 1, params <= 0
            free = ~upper & ~lower
            assert (np.abs(gradient[free]) <= tol).all()
            assert (gradient[upper] >= -tol).all()
            assert (gradient[lower] <= tol).all()
            assert upper.any() or lower.any()  # a boundary fit, by construction


    def test_rows_with_an_interior_maximum_fail_it(self, prl_population_counts):
        # The best boundary candidate of such a row is not a maximum, so
        # the certificate refuses it, unless it lies within the
        # certificate's tolerance of the interior maximum.
        counts = np.concatenate(list(prl_population_counts.values()))
        with np.errstate(all="ignore"):
            _, closed = _closed_form(counts, BITS)
            fit, certified = _boundary_fit(counts[closed], BITS)
        bound, _ = _loglik_gaps(counts[closed], BITS, fit.m, fit.u, fit.match_proportion)
        assert (~certified).sum() > 200
        assert (fit.loglik_gap[certified] <= 1e-7 * np.abs(bound[certified])).all()
