"""Probabilistic record linkage (Fellegi–Sunter with EM estimation).

The intruder compares every (original, masked) record pair on the
quasi-identifier attributes, producing a binary *agreement pattern*.
Under the Fellegi–Sunter model, attribute ``k`` agrees with probability
``m_k`` among true matches and ``u_k`` among non-matches; the matching
weight of a pattern is the log-likelihood ratio

    w(pattern) = sum_k  log(m_k / u_k)            if attribute k agrees
                      + log((1-m_k) / (1-u_k))    if it disagrees.

``m``, ``u`` and the match proportion are fitted by maximum likelihood
over the pattern counts (the intruder does not know the true matching),
then each original record is linked to the masked record with the
highest weight.  The measure is the percentage of records whose true
match wins, with fractional credit on ties as in :mod:`repro.linkage.dbrl`.

Since the weight of a pair depends only on its agreement pattern, all
computations aggregate over the ``2^a`` patterns instead of the ``n^2``
pairs.

How the fit is made.  With ``a = 3`` attributes (every paper dataset)
the two-class model has 7 free parameters against the 7 degrees of
freedom of the 8 pattern cells: it is just-identified (Goodman,
*Biometrika* 1974), so an interior maximum reproduces the observed
pattern frequencies exactly and has a closed form in the pattern
moments (:func:`_closed_form`).  A closed-form row is used only when it
is *certified*: its parameters are valid probabilities and its
log-likelihood is within ``_CERTIFY_RTOL`` (relative) of the saturated
bound ``sum c log(c/N)``, which no model can exceed.

A row with no interior solution has its maximum on the boundary of the
parameter space, where some rates sit at 0 or 1.  A class's product
distribution is then supported on a subcube of the 8 patterns (8, 4,
2 or 1 cells), and when every pattern count is > 0 the two supports
must cover all 8 cells, or a cell with pairs would have probability
zero.  Two subcubes cover the cube only when one is the whole cube or
they are complementary faces, so any other set of active bounds is
excluded and exactly four kinds of boundary stratum remain.  With class
C of full support, class D never shows one bit value (its support is a
face, F1: 6 strata), lives on one edge (F3: 12) or on one pattern (F4:
8); or one bit separates the classes (F2: 3).  Each stratum's maximum
is again in closed form (:func:`_boundary_fit`), so such a row takes
the best valid candidate of the 29, accepted only if it passes a
first-order (KKT) check of the log-likelihood's gradient.  The check is local; on sampled GA rows and
random all-positive rows, no long or multi-start EM found a higher
likelihood than an accepted fit.

Every other row — a zero pattern cell, a failed certificate, or
``a != 3`` — is fitted by the capped EM of :func:`_fit_em_many`.  Every
fit reports its gap to the saturated bound (``loglik_gap``): ~0 for an
interior fit, the model's true shortfall for a boundary fit.
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

#: A closed-form fit is accepted when its log-likelihood is within this
#: fraction of the saturated bound; certified rows measure ~1e-16.
_CERTIFY_RTOL = 1e-6

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
    #: Saturated log-likelihood minus the fit's (~0 for a certified fit).
    loglik_gap: float

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


@dataclass(frozen=True)
class BatchFellegiSunterModel:
    """Fellegi–Sunter parameters for a whole batch of candidate files."""

    m: np.ndarray  # (B, a)
    u: np.ndarray  # (B, a)
    match_proportion: np.ndarray  # (B,)
    pattern_weights: np.ndarray  # (B, 2^a)
    loglik_gap: np.ndarray  # (B,)

    def __len__(self) -> int:
        return self.m.shape[0]

    def single(self, index: int) -> FellegiSunterModel:
        """The scalar view of one batch member."""
        return FellegiSunterModel(
            m=self.m[index],
            u=self.u[index],
            match_proportion=float(self.match_proportion[index]),
            pattern_weights=self.pattern_weights[index],
            loglik_gap=float(self.loglik_gap[index]),
        )


def _checked_counts(pattern_counts: np.ndarray, n_attributes: int) -> np.ndarray:
    """``pattern_counts`` as float64 ``(B, 2^a)``: finite, >= 0, every row with pairs."""
    counts = np.asarray(pattern_counts, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[1] != 2**n_attributes:
        raise LinkageError(
            f"expected (B, {2**n_attributes}) pattern counts, got shape {counts.shape}"
        )
    if not np.isfinite(counts).all():
        raise LinkageError("pattern counts must be finite")
    if (counts < 0).any():
        raise LinkageError("pattern counts must be non-negative")
    if counts.shape[0] and counts.sum(axis=-1).min() <= 0:
        raise LinkageError("no record pairs to fit")
    return counts


def _pattern_weights(bits: np.ndarray, m: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Fellegi–Sunter log-likelihood-ratio weight of every pattern, ``(B, 2^a)``."""
    return _bits_dot(bits, np.log(m + _EPS) - np.log(u + _EPS)) + _bits_dot(
        1 - bits, np.log(1 - m + _EPS) - np.log(1 - u + _EPS)
    )


def _logliks(
    counts: np.ndarray,
    bits: np.ndarray,
    m: np.ndarray,
    u: np.ndarray,
    match_proportion: np.ndarray,
) -> np.ndarray:
    """Per-row log-likelihood of the exact mixture (no ``_EPS``) over observed patterns."""
    agree = bits > 0
    m_side = np.where(agree, m[:, None, :], 1 - m[:, None, :]).prod(axis=-1)
    u_side = np.where(agree, u[:, None, :], 1 - u[:, None, :]).prod(axis=-1)
    mixture = match_proportion[:, None] * m_side + (1 - match_proportion)[:, None] * u_side
    return np.einsum("bp,bp->b", counts, np.log(np.where(counts > 0, mixture, 1.0)))


def _loglik_gaps(
    counts: np.ndarray,
    bits: np.ndarray,
    m: np.ndarray,
    u: np.ndarray,
    match_proportion: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row saturated bound ``sum c log(c/N)`` and the fit's gap to it.

    Invalid parameters give a NaN or infinite gap; a caller fitting such
    rows silences the warnings.
    """
    frequencies = counts / counts.sum(axis=-1, keepdims=True)
    bound = np.einsum("bp,bp->b", counts,
                      np.log(np.where(counts > 0, frequencies, 1.0)))
    return bound, bound - _logliks(counts, bits, m, u, match_proportion)


def _closed_form(
    counts: np.ndarray, bits: np.ndarray
) -> tuple[BatchFellegiSunterModel, np.ndarray]:
    """Moment solution of the ``a = 3`` model per row, and its certificate.

    With agreement rates ``p_k``, pairwise covariances ``c_jk`` and
    third central moment ``c_123`` of the agreement bits, the mixture
    gives ``c_jk = t Δ_j Δ_k`` and ``c_123 = t (1 - 2π) Δ_1 Δ_2 Δ_3``,
    where ``t = π(1 - π)`` and ``Δ = m - u``.  So
    ``r = c_123² / (c_12 c_13 c_23) = (1 - 2π)² / t``, ``t = 1/(4 + r)``
    and ``π = (1 - sqrt(1 - 4t)) / 2``, the root below ½ (matches are
    the minority), evaluated as ``2t / (1 + sqrt(1 - 4t))`` to avoid
    cancellation at small ``π``.  ``|Δ_k|`` follows from the
    covariances and its sign from ``sign(c_jk)`` and ``sign(c_123)``;
    then ``m = p + (1 - π) Δ`` and ``u = p - π Δ``.

    A row is certified when ``c_12 c_13 c_23 > 0``, ``c_123 != 0``,
    every value is finite (a NaN fails each comparison), ``π < ½``,
    ``m`` and ``u`` lie in [0, 1] and the gap to the saturated bound is
    at most ``_CERTIFY_RTOL`` of it.  Other rows hold garbage (the
    caller silences the warnings).  Every operation is elementwise or a
    per-row reduction, so a row's fit and verdict never depend on the
    rest of its batch.
    """
    frequencies = counts / counts.sum(axis=-1, keepdims=True)
    rates = _counts_dot_bits(frequencies, bits)
    centred = bits - rates[:, None, :]
    d1, d2, d3 = centred[..., 0], centred[..., 1], centred[..., 2]
    c23 = np.einsum("bp,bp->b", frequencies, d2 * d3)
    c13 = np.einsum("bp,bp->b", frequencies, d1 * d3)
    c12 = np.einsum("bp,bp->b", frequencies, d1 * d2)
    c123 = np.einsum("bp,bp->b", frequencies, d1 * d2 * d3)
    product = c12 * c13 * c23
    t = 1 / (4 + c123**2 / product)
    pi = 2 * t / (1 + np.sqrt(1 - 4 * t))
    # Column k holds the covariance of the pair *without* attribute k:
    # Δ_k² = c_12 c_13 c_23 / (t · that pair²), with the sign of
    # c_123 · that pair.
    others = np.stack([c23, c13, c12], axis=1)
    delta = (np.sign(c123)[:, None] * np.sign(others)
             * np.sqrt(product[:, None] / (t[:, None] * others**2)))
    m = rates + (1 - pi)[:, None] * delta
    u = rates - pi[:, None] * delta
    bound, gap = _loglik_gaps(counts, bits, m, u, pi)
    certified = (
        (product > 0)
        & (c123 != 0)
        & (pi < 0.5)
        & ((m >= 0) & (m <= 1) & (u >= 0) & (u <= 1)).all(axis=1)
        & (gap <= _CERTIFY_RTOL * np.abs(bound))
    )
    model = BatchFellegiSunterModel(
        m=m, u=u, match_proportion=pi,
        pattern_weights=_pattern_weights(bits, m, u), loglik_gap=gap,
    )
    return model, certified


# Boundary strata of the a = 3 model.  Class D's support is a face (F1),
# an edge (F3) or a vertex (F4) of the pattern cube and class C's is the
# whole cube, or the two classes split the cube into complementary faces
# (F2).  Each family's fit is computed in canonical rate columns and put
# back in bit order by its ``_PLACE`` table; the tables are built once,
# here.


def _cell(assignment: dict[int, int]) -> int:
    """Pattern index of the cell whose bit ``k`` is ``assignment[k]``."""
    return sum(value << bit for bit, value in assignment.items())


def _others(*fixed: int) -> list[int]:
    return [bit for bit in range(3) if bit not in fixed]


def _face(bit: int, value: int) -> list[list[int]]:
    """The 2×2 table of cells with ``bit == value``, indexed by the other two bits."""
    first, second = _others(bit)
    return [[_cell({bit: value, first: x, second: y}) for y in (0, 1)] for x in (0, 1)]


def _edge(j: int, k: int, x_j: int, x_k: int) -> list[int]:
    """The two cells with bits ``(j, k) == (x_j, x_k)``, by the third bit."""
    (third,) = _others(j, k)
    return [_cell({j: x_j, k: x_k, third: x}) for x in (0, 1)]


def _placement(orders: list[list[int]]) -> np.ndarray:
    """``place[g, bit]``: the canonical column that holds ``bit`` in stratum ``g``."""
    return np.array([[order.index(bit) for bit in range(3)] for order in orders])


_F1_KEYS = [(k, v) for k in range(3) for v in (0, 1)]
_F1_KEEP = np.array([_face(k, v) for k, v in _F1_KEYS])
_F1_MIXED = np.array([_face(k, 1 - v) for k, v in _F1_KEYS])
_F1_VALUE = np.array([v for _, v in _F1_KEYS], dtype=np.float64)
_F1_PLACE = _placement([[k, *_others(k)] for k, _ in _F1_KEYS])

_F2_ONE = np.array([_face(k, 1) for k in range(3)])
_F2_ZERO = np.array([_face(k, 0) for k in range(3)])
_F2_PLACE = _placement([[k, *_others(k)] for k in range(3)])

_F3_KEYS = [(j, k, alpha, beta) for j, k in ((0, 1), (0, 2), (1, 2))
            for alpha in (0, 1) for beta in (0, 1)]
# Per stratum: the j-side, k-side and corner cells C fits alone, then D's two cells.
_F3_CELLS = np.array([
    [_edge(j, k, a, 1 - b), _edge(j, k, 1 - a, b), _edge(j, k, 1 - a, 1 - b),
     _edge(j, k, a, b)]
    for j, k, a, b in _F3_KEYS
])
_F3_ALPHA = np.array([a for _, _, a, _ in _F3_KEYS], dtype=np.float64)
_F3_BETA = np.array([b for _, _, _, b in _F3_KEYS], dtype=np.float64)
_F3_PLACE = _placement([[j, k, *_others(j, k)] for j, k, _, _ in _F3_KEYS])

_F4_STAR = _pattern_bits(3).astype(np.float64)
# ``_F4_AWAY[x, k]``: the four cells that disagree with pattern ``x`` on bit ``k``.
_F4_AWAY = np.array([[[p for p in range(8) if (p ^ x) >> k & 1] for k in range(3)]
                     for x in range(8)])

#: Tolerance of the boundary certificate's first-order conditions, as a
#: fraction of the row's pair count.
_KKT_RTOL = 1e-7


def _placed(rates: np.ndarray, place: np.ndarray) -> np.ndarray:
    """``(B, G, 3)`` canonical rate columns put back in bit order."""
    return rates[:, np.arange(place.shape[0])[:, None], place]


def _face_fits(frequencies: np.ndarray) -> tuple[np.ndarray, ...]:
    """F1: D never shows bit ``k = v``; weight of C, and C's and D's rates.

    The cells with ``k = v`` come from C alone, which fits them by
    independence: ``a``, ``b`` are their margins and their mass is
    ``s·P_C(k = v)``.  The other face is ``Q = w·abᵀ + (1 - s)·D₂``,
    with ``D₂`` D's rank-1 table there, so ``w`` solves the linear
    ``det(Q - w·abᵀ) = 0`` and D's rates are the margins of the residual.
    """
    keep = frequencies[:, _F1_KEEP]
    q = frequencies[:, _F1_MIXED]
    mass = keep[..., 0, 0] + keep[..., 0, 1] + keep[..., 1, 0] + keep[..., 1, 1]
    a = (keep[..., 1, 0] + keep[..., 1, 1]) / mass
    b = (keep[..., 0, 1] + keep[..., 1, 1]) / mass
    p00, p01, p10, p11 = (1 - a) * (1 - b), (1 - a) * b, a * (1 - b), a * b
    w = ((q[..., 0, 0] * q[..., 1, 1] - q[..., 0, 1] * q[..., 1, 0])
         / (q[..., 0, 0] * p11 + q[..., 1, 1] * p00
            - q[..., 0, 1] * p10 - q[..., 1, 0] * p01))
    r00, r01 = q[..., 0, 0] - w * p00, q[..., 0, 1] - w * p01
    r10, r11 = q[..., 1, 0] - w * p10, q[..., 1, 1] - w * p11
    residual = r00 + r01 + r10 + r11
    weight = mass + w
    share = mass / weight
    c = np.stack([np.where(_F1_VALUE == 1, share, 1 - share), a, b], axis=-1)
    d = np.stack([np.broadcast_to(1 - _F1_VALUE, a.shape),
                  (r10 + r11) / residual, (r01 + r11) / residual], axis=-1)
    return weight, _placed(c, _F1_PLACE), _placed(d, _F1_PLACE)


def _split_fits(frequencies: np.ndarray) -> tuple[np.ndarray, ...]:
    """F2: bit ``k`` separates the classes; each half by independence."""
    rates = []
    for cells in (_F2_ONE, _F2_ZERO):
        half = frequencies[:, cells]
        mass = half[..., 0, 0] + half[..., 0, 1] + half[..., 1, 0] + half[..., 1, 1]
        rates.append((mass, (half[..., 1, 0] + half[..., 1, 1]) / mass,
                      (half[..., 0, 1] + half[..., 1, 1]) / mass))
    (weight, c_first, c_second), (_, d_first, d_second) = rates
    c = np.stack([np.ones_like(weight), c_first, c_second], axis=-1)
    d = np.stack([np.zeros_like(weight), d_first, d_second], axis=-1)
    return weight, _placed(c, _F2_PLACE), _placed(d, _F2_PLACE)


def _edge_fits(frequencies: np.ndarray) -> tuple[np.ndarray, ...]:
    """F3: D lives on the two cells with bits ``(j, k) = (α, β)``.

    C alone fits the other six cells by quasi-independence: its ``j``
    and ``k`` rates follow from the odds of the three observed ``(j, k)``
    cells, and its third rate is the six cells' share with that bit set.
    D fits its two cells exactly with the residual.
    """
    cells = frequencies[:, _F3_CELLS]
    pairs = cells[..., 0] + cells[..., 1]
    side_j, side_k, corner = pairs[..., 0], pairs[..., 1], pairs[..., 2]
    c_j = side_j / (side_j + corner)  # C's P(bit j = α)
    c_k = side_k / (side_k + corner)  # C's P(bit k = β)
    pure = side_j + side_k + corner
    c_third = (cells[..., 0, 1] + cells[..., 1, 1] + cells[..., 2, 1]) / pure
    weight = pure / (1 - c_j * c_k)
    inside = weight * c_j * c_k
    r0 = cells[..., 3, 0] - inside * (1 - c_third)
    r1 = cells[..., 3, 1] - inside * c_third
    c = np.stack([np.where(_F3_ALPHA == 1, c_j, 1 - c_j),
                  np.where(_F3_BETA == 1, c_k, 1 - c_k), c_third], axis=-1)
    d = np.stack([np.broadcast_to(_F3_ALPHA, c_j.shape),
                  np.broadcast_to(_F3_BETA, c_j.shape), r1 / (r0 + r1)], axis=-1)
    return weight, _placed(c, _F3_PLACE), _placed(d, _F3_PLACE)


def _vertex_fits(frequencies: np.ndarray) -> tuple[np.ndarray, ...]:
    """F4: D is a point mass on one pattern; both roots of its quadratic.

    C fits the other seven cells as an independence model truncated to
    exclude the pattern.  With ``s_k`` their share that agrees with the
    pattern on bit ``k``, stationarity gives C's agreement rates
    ``r_k = ρ + s_k (1 - ρ)`` with ``ρ = Π r_k``; in ``t = 1 - ρ`` and
    ``a = 1 - s`` that is ``e₃t² - e₂t - (1 - e₁) = 0`` (elementary
    symmetric polynomials of ``a``), solved without cancellation.
    """
    away = frequencies[:, _F4_AWAY]
    rest = 1 - frequencies  # mass off each pattern, (B, 8)
    a = (away[..., 0] + away[..., 1] + away[..., 2] + away[..., 3]) / rest[..., None]
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    e1, e2, e3 = a0 + a1 + a2, a0 * a1 + a0 * a2 + a1 * a2, a0 * a1 * a2
    q = (e2 + np.sqrt(e2 * e2 + 4 * e3 * (1 - e1))) / 2
    t = np.stack([q / e3, -(1 - e1) / q], axis=-1)  # (B, 8, 2)
    weight = rest[..., None] / t
    disagree = t[..., None] * a[:, :, None, :]  # C's P(bit k differs), (B, 8, 2, 3)
    star = _F4_STAR[:, None, :]
    c = np.where(star == 1, 1 - disagree, disagree)
    d = np.broadcast_to(star, c.shape)
    batch = frequencies.shape[0]
    return weight.reshape(batch, 16), c.reshape(batch, 16, 3), d.reshape(batch, 16, 3)


def _kkt_holds(
    counts: np.ndarray,
    bits: np.ndarray,
    m: np.ndarray,
    u: np.ndarray,
    match_proportion: np.ndarray,
) -> np.ndarray:
    """First-order optimality of each ``a = 3`` fit ``(π, m, u)``, within ``_KKT_RTOL · N``.

    The analytic gradient of the log-likelihood must vanish on every
    free parameter, be ``>= -tol`` on a rate at 1 and ``<= tol`` on a
    rate at 0.  A NaN anywhere fails.
    """
    agree = bits > 0
    sign = np.where(agree, 1.0, -1.0).T  # (3, 2^a): d factor / d rate
    pi = match_proportion[:, None]
    sides, others = [], []
    for rates in (m, u):
        factors = np.where(agree, rates[:, None, :], 1 - rates[:, None, :])
        f0, f1, f2 = factors[..., 0], factors[..., 1], factors[..., 2]
        sides.append(f0 * f1 * f2)
        others.append(np.stack([f1 * f2, f0 * f2, f0 * f1], axis=1))  # (B, 3, 2^a)
    m_side, u_side = sides
    weight = counts / (pi * m_side + (1 - pi) * u_side)
    signed = weight[:, None, :] * sign
    gradient = np.concatenate([
        np.einsum("bp,bp->b", weight, m_side - u_side)[:, None],
        pi * (signed * others[0]).sum(axis=-1),
        (1 - pi) * (signed * others[1]).sum(axis=-1),
    ], axis=1)
    params = np.concatenate([pi, m, u], axis=1)
    tol = _KKT_RTOL * counts.sum(axis=-1, keepdims=True)
    return np.where(params >= 1, gradient >= -tol,
                    np.where(params <= 0, gradient <= tol,
                             np.abs(gradient) <= tol)).all(axis=1)


def _boundary_candidates(
    frequencies: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(π, m, u)`` of every stratum's fit, shapes ``(B, G)``, ``(B, G, 3)``.

    Columns run F1 (6), F2 (3), F3 (12), F4 (8 patterns × 2 roots); the
    smaller class is labelled the matches.
    """
    families = [fits(frequencies) for fits in (_face_fits, _split_fits, _edge_fits,
                                               _vertex_fits)]
    weight, c, d = (np.concatenate(parts, axis=1) for parts in zip(*families))
    c_matches = weight < 0.5
    pi = np.where(c_matches, weight, 1 - weight)
    m = np.where(c_matches[..., None], c, d)
    u = np.where(c_matches[..., None], d, c)
    return pi, m, u


def _boundary_fit(
    counts: np.ndarray, bits: np.ndarray
) -> tuple[BatchFellegiSunterModel, np.ndarray]:
    """Best boundary-stratum fit of each all-positive ``a = 3`` row, and its certificate.

    Every stratum's maximum is in closed form (see the family functions),
    so a row's boundary maximum is the best of 29 candidates (37 with
    both F4 roots).  A candidate is valid when ``m`` and ``u`` lie in
    [0, 1], ``0 < π < ½`` and its log-likelihood is finite; the valid
    candidate with the highest log-likelihood wins, the lowest column on
    a tie.  A row is certified when a valid candidate exists and it passes
    :func:`_kkt_holds`.  Other rows hold garbage (the caller silences
    the warnings).  Every operation is elementwise, a gather from the
    module's index tables, or a per-row reduction, so a row's fit and
    verdict never depend on the rest of its batch.
    """
    frequencies = counts / counts.sum(axis=-1, keepdims=True)
    pi, m, u = _boundary_candidates(frequencies)
    batch, width = pi.shape
    loglik = _logliks(np.repeat(counts, width, axis=0), bits, m.reshape(-1, 3),
                      u.reshape(-1, 3), pi.reshape(-1)).reshape(batch, width)
    valid = ((pi > 0) & (pi < 0.5)
             & ((m >= 0) & (m <= 1) & (u >= 0) & (u <= 1)).all(axis=-1)
             & (loglik > -np.inf))  # also False for NaN
    score = np.where(valid, loglik, -np.inf)
    rows = np.arange(batch)
    best = score.argmax(axis=1)
    m, u, pi = m[rows, best], u[rows, best], pi[rows, best]
    certified = valid[rows, best] & _kkt_holds(counts, bits, m, u, pi)
    _, gap = _loglik_gaps(counts, bits, m, u, pi)
    model = BatchFellegiSunterModel(
        m=m, u=u, match_proportion=pi,
        pattern_weights=_pattern_weights(bits, m, u), loglik_gap=gap,
    )
    return model, certified


def _fit_em_many(
    pattern_counts: np.ndarray,
    n_attributes: int,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
) -> BatchFellegiSunterModel:
    """Capped EM fit over a ``(B, 2^a)`` batch of aggregated pattern counts.

    Every operation is elementwise over the batch or a per-row
    reduction, and converged/degenerate candidates are frozen by mask
    instead of dropping out of the loop, so each candidate's parameter
    trajectory is exactly what a one-candidate fit would produce:
    batching changes throughput, never results.

    With telemetry on, every row observes its iteration count into
    ``repro_em_iterations``, and rows still moving when
    ``max_iterations`` runs out count into ``repro_em_unconverged_total``.
    """
    counts = _checked_counts(pattern_counts, n_attributes)
    registry = get_registry()
    totals = counts.sum(axis=-1)
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

    if iterations is not None:
        for count in iterations.tolist():
            registry.observe("repro_em_iterations", count)
        unconverged = int(np.count_nonzero(active))
        if unconverged:
            registry.inc("repro_em_unconverged_total", unconverged)
    _, gap = _loglik_gaps(counts, bits, m, u, match_proportion)
    return BatchFellegiSunterModel(
        m=m, u=u, match_proportion=match_proportion,
        pattern_weights=_pattern_weights(bits, m, u), loglik_gap=gap,
    )


def fit_fellegi_sunter_many(
    pattern_counts: np.ndarray,
    n_attributes: int,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
) -> BatchFellegiSunterModel:
    """Maximum-likelihood fit over a ``(B, 2^a)`` batch of pattern counts.

    This is the primary implementation — :func:`fit_fellegi_sunter` is
    its ``B == 1`` wrapper.  With ``a = 3`` each row takes the closed
    form of :func:`_closed_form` when it is certified, and otherwise,
    when every pattern count is > 0, the boundary fit of
    :func:`_boundary_fit` when that is certified.  Every other row (and
    every row when ``a != 3``) is fitted by :func:`_fit_em_many` on the
    gathered subset, with ``max_iterations`` and ``tolerance``.  Every
    route computes each row from that row alone, so batching changes
    throughput, never results.

    With telemetry on, each call observes ``repro_em_fit_seconds`` and
    counts its rows into ``repro_em_fits_total{method}``
    (``closed_form``, ``boundary`` or ``em``); only EM rows observe
    ``repro_em_iterations`` and ``repro_em_unconverged_total``.
    """
    counts = _checked_counts(pattern_counts, n_attributes)
    # The fit gets its own latency series; the clock is only read when
    # telemetry is on.
    registry = get_registry()
    fit_start = time.perf_counter() if registry.enabled else 0.0
    batch = counts.shape[0]
    closed = np.zeros(batch, dtype=bool)
    boundary = np.zeros(batch, dtype=bool)
    model = None
    if n_attributes == 3:
        bits = _pattern_bits(3).astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            model, closed = _closed_form(counts, bits)
            rest = np.flatnonzero(~closed & (counts > 0).all(axis=1))
            if rest.size:
                fit, certified = _boundary_fit(counts[rest], bits)
                _scatter(model, rest[certified], fit, certified)
                boundary[rest[certified]] = True
    em_rows = np.flatnonzero(~closed & ~boundary)
    if em_rows.size:
        em = _fit_em_many(counts[em_rows], n_attributes,
                          max_iterations=max_iterations, tolerance=tolerance)
        if model is None or em_rows.size == batch:
            model = em
        else:
            _scatter(model, em_rows, em, slice(None))
    if registry.enabled:
        registry.observe("repro_em_fit_seconds", time.perf_counter() - fit_start)
        for method, rows in (("closed_form", int(closed.sum())),
                             ("boundary", int(boundary.sum())),
                             ("em", em_rows.size)):
            if rows:
                registry.inc("repro_em_fits_total", rows, method=method)
    return model


def _scatter(model: BatchFellegiSunterModel, rows, part: BatchFellegiSunterModel,
             part_rows) -> None:
    """Overwrite ``model``'s ``rows`` with ``part``'s ``part_rows``, in place."""
    for name in ("m", "u", "match_proportion", "pattern_weights", "loglik_gap"):
        getattr(model, name)[rows] = getattr(part, name)[part_rows]


def fit_fellegi_sunter(
    pattern_counts: np.ndarray,
    n_attributes: int,
    max_iterations: int = 200,
    tolerance: float = 1e-8,
) -> FellegiSunterModel:
    """Fit of the Fellegi–Sunter mixture from aggregated pattern counts.

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
