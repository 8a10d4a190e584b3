"""Probabilistic record linkage (Fellegi–Sunter with EM estimation).

The intruder compares every (original, masked) record pair on the
quasi-identifier attributes, producing a binary *agreement pattern*.
Under the Fellegi–Sunter model, attribute ``k`` agrees with probability
``m_k`` among true matches and ``u_k`` among non-matches; the matching
weight of a pattern is the log-likelihood ratio

    w(pattern) = sum_k  log(m_k / u_k)            if attribute k agrees
                      + log((1-m_k) / (1-u_k))    if it disagrees.

``m``, ``u`` and the match proportion are estimated by EM over the
pattern counts (the intruder does not know the true matching), then each
original record is linked to the masked record with the highest weight.
The measure is the percentage of records whose true match wins, with
fractional credit on ties as in :mod:`repro.linkage.dbrl`.

Since the weight of a pair depends only on its agreement pattern, all
computations aggregate over the ``2^a`` patterns instead of the ``n^2``
pairs, which keeps EM instant even for thousands of records.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes, require_masked_pair
from repro.exceptions import LinkageError
from repro.linkage.dbrl import fractional_correct_links
from repro.obs.registry import DEFAULT_SIZE_BUCKETS, get_registry

_EPS = 1e-9

# Iteration counts are size-shaped, not latency-shaped; pin the bucket
# bounds before the first observation picks the seconds default.
get_registry().declare_histogram("repro_em_iterations", DEFAULT_SIZE_BUCKETS)


def agreement_pattern_matrix(
    original: CategoricalDataset,
    masked: CategoricalDataset,
    attributes: Sequence[str],
) -> np.ndarray:
    """Pattern index of every record pair, shape ``(n, n)``, dtype int.

    Attribute ``k`` (in ``attributes`` order) contributes bit ``k``:
    the bit is set when the pair *agrees* on that attribute.
    """
    require_masked_pair(original, masked)
    columns = require_attributes(original, attributes)
    if not columns:
        raise LinkageError("agreement patterns need at least one attribute")
    if len(columns) > 20:
        raise LinkageError(f"too many attributes for pattern encoding: {len(columns)}")
    n = original.n_records
    patterns = np.zeros((n, n), dtype=np.int64)
    for bit, col in enumerate(columns):
        agree = original.column(col)[:, None] == masked.column(col)[None, :]
        patterns |= agree.astype(np.int64) << bit
    return patterns


@dataclass(frozen=True)
class FellegiSunterModel:
    """Estimated Fellegi–Sunter parameters and per-pattern weights."""

    m: np.ndarray
    u: np.ndarray
    match_proportion: float
    pattern_weights: np.ndarray

    @property
    def n_attributes(self) -> int:
        return self.m.shape[0]


def _pattern_bits(n_attributes: int) -> np.ndarray:
    """Bit matrix: ``bits[p, k]`` is 1 iff pattern ``p`` agrees on attr ``k``."""
    patterns = np.arange(2**n_attributes)
    return (patterns[:, None] >> np.arange(n_attributes)[None, :]) & 1


def _bits_dot(bits: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``out[b, p] = sum_k bits[p, k] * values[b, k]``, candidate-independent.

    Deliberately einsum, not matmul: BLAS is free to reorder the
    accumulation per call shape, so a batched matmul need not reproduce
    its own single-row result bit for bit.  einsum's default (non-BLAS)
    kernel computes each output element from its own row with a fixed
    summation order, whatever the batch size.
    """
    return np.einsum("pk,bk->bp", bits, values)


def _counts_dot_bits(counts: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """``out[b, k] = sum_p counts[b, p] * bits[p, k]``, candidate-independent."""
    return np.einsum("bp,pk->bk", counts, bits)


def _pattern_logliks(bits: np.ndarray, probabilities: np.ndarray) -> np.ndarray:
    """Per-pattern log-likelihoods ``(B, P)`` under agree-probabilities ``(B, a)``."""
    return _bits_dot(bits, np.log(probabilities + _EPS)) + _bits_dot(
        1 - bits, np.log(1 - probabilities + _EPS)
    )


@dataclass(frozen=True)
class BatchFellegiSunterModel:
    """Fellegi–Sunter parameters for a whole batch of candidate files."""

    m: np.ndarray  # (B, a)
    u: np.ndarray  # (B, a)
    match_proportion: np.ndarray  # (B,)
    pattern_weights: np.ndarray  # (B, 2^a)

    def __len__(self) -> int:
        return self.m.shape[0]

    def single(self, index: int) -> FellegiSunterModel:
        """The scalar view of one batch member."""
        return FellegiSunterModel(
            m=self.m[index],
            u=self.u[index],
            match_proportion=float(self.match_proportion[index]),
            pattern_weights=self.pattern_weights[index],
        )


def fit_fellegi_sunter_many(
    pattern_counts: np.ndarray,
    n_attributes: int,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
) -> BatchFellegiSunterModel:
    """EM fit over a ``(B, 2^a)`` batch of aggregated pattern counts.

    This is the primary implementation — :func:`fit_fellegi_sunter` is
    its ``B == 1`` wrapper.  Every operation is elementwise over the
    batch or a per-row reduction, and converged/degenerate candidates
    are frozen by mask instead of dropping out of the loop, so each
    candidate's parameter trajectory is exactly what a one-candidate
    fit would produce: batching changes throughput, never results.

    With telemetry on, every row observes its iteration count into
    ``repro_em_iterations``, and rows still moving when
    ``max_iterations`` runs out count into ``repro_em_unconverged_total``.
    """
    counts = np.asarray(pattern_counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[1] != 2**n_attributes:
        raise LinkageError(
            f"expected (B, {2**n_attributes}) pattern counts, got shape {counts.shape}"
        )
    # The EM fit dominates fresh-evaluation time, so it gets its own
    # latency series; the clock is only read when telemetry is on.
    registry = get_registry()
    em_start = time.perf_counter() if registry.enabled else 0.0
    totals = counts.sum(axis=-1)
    if counts.shape[0] and totals.min() <= 0:
        raise LinkageError("no record pairs to fit")
    bits = _pattern_bits(n_attributes).astype(np.float64)
    unbits = 1 - bits

    batch = counts.shape[0]
    # Initialization: matches agree often, non-matches rarely.
    m = np.full((batch, n_attributes), 0.9)
    u = np.full((batch, n_attributes), 0.1)
    match_proportion = np.full(batch, 0.01)

    # NaN, not -inf: "no previous value" must fail the first convergence
    # test without ``tolerance * inf`` (NaN, and a warning, at tolerance 0).
    previous_loglik = np.full(batch, np.nan)
    active = np.ones(batch, dtype=bool)
    all_active = True
    iterations = np.zeros(batch, dtype=np.int64) if registry.enabled else None
    for _ in range(max_iterations):
        if iterations is not None:
            iterations += active
        # Compute every row, write back only active non-degenerate ones:
        # the per-iteration arrays are tiny (numpy call overhead, not
        # volume, is the cost), so recomputing frozen rows is cheaper
        # than gather/scatter — and discarded work cannot move results.
        # The m- and u-side likelihoods ride through one stacked call
        # per ufunc for the same reason.
        mu = np.concatenate([m, u], axis=0)
        log_mu = _bits_dot(bits, np.log(mu + _EPS)) + _bits_dot(
            unbits, np.log((1 - mu) + _EPS)
        )
        likelihood = np.exp(log_mu)
        match_term = match_proportion[:, None] * likelihood[:batch]
        nonmatch_term = (1 - match_proportion)[:, None] * likelihood[batch:]
        denominator = match_term + nonmatch_term + _EPS
        responsibility = match_term / denominator

        weighted = counts * responsibility
        weight_total = weighted.sum(axis=-1)
        rest_total = totals - weight_total
        # A degenerate mixture stops before updating, like the scalar
        # ``break``; everyone else updates and then checks convergence.
        degenerate = (weight_total <= _EPS) | (rest_total <= _EPS)
        has_degenerate = bool(degenerate.any())
        if has_degenerate:
            update = active & ~degenerate
            weight_total = np.where(weight_total <= _EPS, 1.0, weight_total)
            rest_total = np.where(rest_total <= _EPS, 1.0, rest_total)
        else:
            update = active

        new_mu = np.clip(
            _counts_dot_bits(
                np.concatenate([weighted, counts - weighted], axis=0), bits
            )
            / np.concatenate([weight_total, rest_total])[:, None],
            _EPS,
            1 - _EPS,
        )
        new_mp = np.clip(weight_total / totals, _EPS, 1 - _EPS)
        loglik = np.einsum("bp,bp->b", counts, np.log(denominator))
        if all_active and not has_degenerate:
            m = new_mu[:batch]
            u = new_mu[batch:]
            match_proportion = new_mp
            converged = np.abs(loglik - previous_loglik) < tolerance * (
                1 + np.abs(previous_loglik)
            )
            previous_loglik = loglik
            active = ~converged
        else:
            m = np.where(update[:, None], new_mu[:batch], m)
            u = np.where(update[:, None], new_mu[batch:], u)
            match_proportion = np.where(update, new_mp, match_proportion)
            converged = np.abs(loglik - previous_loglik) < tolerance * (
                1 + np.abs(previous_loglik)
            )
            previous_loglik = np.where(update, loglik, previous_loglik)
            active = update & ~converged
        all_active = bool(active.all())
        if not active.any():
            break

    weights = _bits_dot(bits, np.log(m + _EPS) - np.log(u + _EPS)) + _bits_dot(
        1 - bits, np.log(1 - m + _EPS) - np.log(1 - u + _EPS)
    )
    if iterations is not None:
        registry.observe("repro_em_fit_seconds", time.perf_counter() - em_start)
        for count in iterations.tolist():
            registry.observe("repro_em_iterations", count)
        unconverged = int(np.count_nonzero(active))
        if unconverged:
            registry.inc("repro_em_unconverged_total", unconverged)
    return BatchFellegiSunterModel(
        m=m, u=u, match_proportion=match_proportion, pattern_weights=weights
    )


def fit_fellegi_sunter(
    pattern_counts: np.ndarray,
    n_attributes: int,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
) -> FellegiSunterModel:
    """EM fit of the Fellegi–Sunter mixture from aggregated pattern counts.

    Thin wrapper over :func:`fit_fellegi_sunter_many` with a batch of
    one, so the scalar and batch evaluation paths share one numerical
    trajectory.
    """
    counts = np.asarray(pattern_counts, dtype=np.float64)
    if counts.shape != (2**n_attributes,):
        raise LinkageError(
            f"expected {2**n_attributes} pattern counts, got shape {counts.shape}"
        )
    model = fit_fellegi_sunter_many(
        counts[None, :], n_attributes, max_iterations=max_iterations, tolerance=tolerance
    )
    return model.single(0)


def probabilistic_record_linkage(
    original: CategoricalDataset,
    masked: CategoricalDataset,
    attributes: Sequence[str],
) -> float:
    """Percentage of records re-identified by Fellegi–Sunter linkage (0..100)."""
    patterns = agreement_pattern_matrix(original, masked, attributes)
    n_attributes = len(attributes)
    counts = np.bincount(patterns.ravel(), minlength=2**n_attributes)
    model = fit_fellegi_sunter(counts, n_attributes)
    weights = model.pattern_weights[patterns]
    correct = fractional_correct_links(weights, best_is_max=True)
    return 100.0 * correct / original.n_records
