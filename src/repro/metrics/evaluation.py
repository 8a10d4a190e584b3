"""The protection evaluator: IL + DR + score for one masked candidate.

:class:`ProtectionEvaluator` binds the paper's full measure stack to one
original file and attribute set:

* information loss = mean of {CTBIL, DBIL, EBIL}  (paper §2.3.1)
* disclosure risk  = mean of {ID, DBRL, PRL, RSRL}  (paper §2.3.2)
* score            = a :class:`~repro.metrics.score.ScoreFunction`
  over the pair (paper §2.3.3)

and evaluates masked candidates against it.  The engine keeps each
survivor's evaluation, so the evaluator only sees new children, and few
of those repeat an earlier candidate (a 150-generation flare run makes
3 memo hits in 331 lookups).  The memo is a cheap guard against those
repeats; what it costs is memory, so it keys each candidate on
:meth:`~repro.data.dataset.CategoricalDataset.delta_key`: the cells
where it differs from the original and its codes there.  The GA's
operators keep a protection close to its original, so a flare key is
about 1.6 KB (its median candidate differs in 545 of 13,858 cells),
against 14 KB for the whole matrix at the schema's width.

The evaluator is *batch-first*: :meth:`ProtectionEvaluator.evaluate_many`
dedupes a candidate batch by that key, consults the in-memory memo
and the persistent cache in bulk, and pushes only the fresh remainder
through the measures' vectorized batch kernels — optionally fanned out
over a pluggable executor (any object with the
:class:`repro.service.backends.ExecutionBackend` ``map`` surface).
The kernels walk the fresh candidates :data:`SCORE_CHUNK` at a time, so
a scoring pass's code tensors, linkage pairs and scratch arrays are
bounded by that chunk rather than by the batch: the initial population
no longer sets the process's peak memory.  Evaluation is pure, so
``evaluate_many`` returns exactly what mapping
:meth:`ProtectionEvaluator.evaluate` would, whatever the batch
composition, chunk size or worker count.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from collections.abc import Sequence
from typing import Protocol, runtime_checkable

from repro.config import METRIC_KERNEL_VERSION
from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_masked_pair
from repro.exceptions import MetricError
from repro.metrics.base import CandidateBatch, DisclosureRiskMeasure, InformationLossMeasure
from repro.metrics.contingency import ContingencyTableLoss
from repro.metrics.distance_il import DistanceBasedLoss
from repro.metrics.entropy_il import EntropyBasedLoss
from repro.metrics.interval_disclosure import IntervalDisclosure
from repro.metrics.linkage_risk import (
    DistanceLinkageRisk,
    ProbabilisticLinkageRisk,
    RankSwappingLinkageRisk,
)
from repro.metrics.score import MaxScore, ProtectionScore, ScoreFunction
from repro.obs.registry import DEFAULT_SIZE_BUCKETS, get_registry
from repro.obs.trace import record_span, span_active

# Batch sizes are size-shaped, not latency-shaped; pin the bucket bounds
# before the first observation picks the seconds default.
get_registry().declare_histogram("repro_eval_batch_size", DEFAULT_SIZE_BUCKETS)


@runtime_checkable
class ScoreCache(Protocol):
    """Persistent score store the evaluator consults behind its memo cache.

    Implementations (e.g. :class:`repro.service.cache.EvaluationCache`)
    survive the process: keys are content hashes covering the original
    file, the masked candidate, and the measure configuration, so a hit
    is exactly as trustworthy as recomputing.
    """

    def get(self, key: str) -> "ProtectionScore | None":
        """Return the stored score for ``key``, or ``None`` on a miss."""
        ...

    def put(self, key: str, score: "ProtectionScore") -> None:
        """Store ``score`` under ``key`` (overwriting any previous entry)."""
        ...


def _cache_get_many(cache: ScoreCache, keys: Sequence[str]) -> dict:
    """Bulk lookup against ``cache``, via ``get_many`` when it offers one.

    Stores that implement the optional bulk surface (one SELECT instead
    of N — see :meth:`repro.service.cache.EvaluationCache.get_many`)
    get it used; plain :class:`ScoreCache` implementations fall back to
    a ``get`` loop with identical semantics.
    """
    get_many = getattr(cache, "get_many", None)
    if callable(get_many):
        return dict(get_many(keys))
    found = {}
    for key in keys:
        score = cache.get(key)
        if score is not None:
            found[key] = score
    return found


def _cache_put_many(cache: ScoreCache, items: Sequence[tuple[str, "ProtectionScore"]]) -> None:
    """Bulk store into ``cache``; one transaction when it offers ``put_many``."""
    put_many = getattr(cache, "put_many", None)
    if callable(put_many):
        put_many(items)
        return
    for key, score in items:
        cache.put(key, score)


def _score_candidates(
    il_measures: Sequence[InformationLossMeasure],
    dr_measures: Sequence[DisclosureRiskMeasure],
    score_function: ScoreFunction,
    batch: Sequence[CategoricalDataset],
) -> "list[ProtectionScore]":
    """Score a batch through the measures' vectorized kernels.

    Module-level (and taking the measures explicitly) so the process
    executor can pickle it.  Every score the evaluator computes fresh
    goes through here, so scalar and batch scoring agree bit for bit.
    The candidates are scored :data:`SCORE_CHUNK` at a time; all the
    measures read one chunk's :class:`~repro.metrics.base.CandidateBatch`,
    so each candidate is validated, stacked and encoded once, and the
    chunk's intermediates are freed before the next one is built.
    Every batch kernel is candidate-independent, so chunking never
    changes a value.
    """
    results = []
    for start in range(0, len(batch), SCORE_CHUNK):
        shared = CandidateBatch(batch[start:start + SCORE_CHUNK])
        il_values = [(m.measure_name, m.compute_many(shared).tolist()) for m in il_measures]
        dr_values = [(m.measure_name, m.compute_many(shared).tolist()) for m in dr_measures]
        for index in range(len(shared)):
            il_components = {name: values[index] for name, values in il_values}
            dr_components = {name: values[index] for name, values in dr_values}
            information_loss = sum(il_components.values()) / len(il_components)
            disclosure_risk = sum(dr_components.values()) / len(dr_components)
            results.append(
                ProtectionScore(
                    information_loss=information_loss,
                    disclosure_risk=disclosure_risk,
                    score=score_function(information_loss, disclosure_risk),
                    il_components=il_components,
                    dr_components=dr_components,
                )
            )
    return results


def _score_candidates_payload(payload: tuple) -> "list[ProtectionScore]":
    """Executor entry point: unpack one chunk's payload and score it."""
    il_measures, dr_measures, score_function, chunk = payload
    return _score_candidates(il_measures, dr_measures, score_function, chunk)


#: Fewest candidates worth a chunk of their own.  A batch kernel's cost
#: per candidate falls with its batch size up to about 8 and little
#: after (flare, warm evaluator: 4.6 ms at 2, 3.0 ms at 8, 2.5 ms at 16),
#: so splitting a small batch costs more kernel time than it saves.
MIN_CHUNK = 8

#: Most candidates one :class:`~repro.metrics.base.CandidateBatch`
#: holds.  Its code tensor, cells, linkage pairs and each measure's
#: scratch arrays grow with it: scoring flare's 104-candidate initial
#: population whole peaks at +7.3 MB of tracemalloc, in chunks of 32 /
#: 16 / 8 at +2.7 / +1.8 / +1.4 MB.  A library flare run's peak RSS
#: reads 45.2 / 44.0 / 43.8 MB (2-core x86): 8 saves little more and
#: costs kernel time (see :data:`MIN_CHUNK`).
SCORE_CHUNK = 2 * MIN_CHUNK


def chunk_plan(size: int, workers: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of each executor chunk of a ``size``-candidate batch.

    ``max(1, min(workers, size // MIN_CHUNK))`` chunks of near-equal
    length, in batch order.  Each worker walks its chunk
    :data:`SCORE_CHUNK` candidates at a time.
    """
    chunks = max(1, min(workers, size // MIN_CHUNK))
    step = max(1, -(-size // chunks))
    return [(start, min(start + step, size)) for start in range(0, size, step)]


def default_il_measures(
    original: CategoricalDataset, attributes: Sequence[str]
) -> list[InformationLossMeasure]:
    """The paper's information-loss stack: CTBIL, DBIL, EBIL."""
    return [
        ContingencyTableLoss(original, attributes),
        DistanceBasedLoss(original, attributes),
        EntropyBasedLoss(original, attributes),
    ]


def default_dr_measures(
    original: CategoricalDataset, attributes: Sequence[str]
) -> list[DisclosureRiskMeasure]:
    """The paper's disclosure-risk stack: ID, DBRL, PRL, RSRL."""
    return [
        IntervalDisclosure(original, attributes),
        DistanceLinkageRisk(original, attributes),
        ProbabilisticLinkageRisk(original, attributes),
        RankSwappingLinkageRisk(original, attributes),
    ]


class ProtectionEvaluator:
    """Scores masked candidates of one original file.

    Parameters
    ----------
    original:
        The unmasked file.
    attributes:
        Quasi-identifier attributes the measures look at; defaults to all
        attributes of the file.
    il_measures / dr_measures:
        Bound measure stacks; default to the paper's (see module docstring).
    score_function:
        Aggregation of (IL, DR); defaults to the paper's Eq. 2 max score.
    cache_size:
        Number of memoized evaluations (LRU, keyed by each candidate's
        :meth:`~repro.data.dataset.CategoricalDataset.delta_key` from
        ``original``, so an entry's key costs the cells the candidate
        changed, not the whole matrix); 0 disables caching.  Fresh
        candidates are scored :data:`SCORE_CHUNK` at a time whatever
        the batch size, so scoring memory does not grow with it.
    persistent_cache:
        Optional :class:`ScoreCache` consulted on in-memory misses and
        fed every fresh evaluation, so repeated runs and restarted jobs
        skip already-scored candidates.
    executor:
        Optional evaluation executor for :meth:`evaluate_many`'s fresh
        remainder — any object with the
        :class:`repro.service.backends.ExecutionBackend` ``map`` surface;
        runs build a :class:`~repro.service.backends.ThreadBackend`
        (numpy's kernels release the GIL).  ``None`` evaluates
        in-process.  Evaluation is pure, so the executor never changes
        results.
    """

    def __init__(
        self,
        original: CategoricalDataset,
        attributes: Sequence[str] | None = None,
        il_measures: Sequence[InformationLossMeasure] | None = None,
        dr_measures: Sequence[DisclosureRiskMeasure] | None = None,
        score_function: ScoreFunction | None = None,
        cache_size: int = 8192,
        persistent_cache: ScoreCache | None = None,
        executor: object | None = None,
    ) -> None:
        if cache_size < 0:
            raise MetricError(f"cache_size must be >= 0, got {cache_size}")
        self.original = original
        self.attributes = tuple(attributes) if attributes is not None else original.attribute_names
        self.il_measures = (
            list(il_measures)
            if il_measures is not None
            else default_il_measures(original, self.attributes)
        )
        self.dr_measures = (
            list(dr_measures)
            if dr_measures is not None
            else default_dr_measures(original, self.attributes)
        )
        if not self.il_measures or not self.dr_measures:
            raise MetricError("evaluator needs at least one IL and one DR measure")
        self.score_function = score_function if score_function is not None else MaxScore()
        self._cache_size = cache_size
        self._cache: OrderedDict[bytes, ProtectionScore] = OrderedDict()
        self.persistent_cache = persistent_cache
        self.executor = executor
        self._config_fingerprint: str | None = None
        self.evaluations = 0
        self.cache_hits = 0
        self.persistent_hits = 0
        self.batch_dedup = 0
        self.batches = 0
        self.max_batch_size = 0
        self.fresh_seconds = 0.0

    @staticmethod
    def _component_signature(component: object, name: str) -> dict:
        """Identity of one measure / score function, parameters included.

        Captures the class plus every public scalar attribute (``width``,
        ``max_order``, weights, ...), so two instances of the same class
        with different parameters never fingerprint alike.
        """
        params: dict[str, object] = {}
        for key, value in sorted(vars(component).items()):
            if key.startswith("_"):
                continue
            if isinstance(value, (bool, int, float, str)):
                params[key] = value
            elif isinstance(value, (tuple, list)) and all(
                isinstance(item, (bool, int, float, str)) for item in value
            ):
                params[key] = list(value)
        return {"name": name, "type": type(component).__qualname__, "params": params}

    def config_fingerprint(self) -> str:
        """Stable hash of the bound measure configuration.

        Covers the original file's content and schema (each domain's
        name, categories and ordinal flag), the protected attributes, the
        measure stacks (with their parameters), and the score function —
        everything that changes the meaning of a :class:`ProtectionScore`.
        Persistent caches key on it so entries from a differently-
        configured evaluator can never be confused.
        """
        if self._config_fingerprint is None:
            payload = {
                "kernel": METRIC_KERNEL_VERSION,
                "original": hashlib.sha256(self.original.fingerprint()).hexdigest(),
                "schema": [
                    [d.name, list(d.categories), d.ordinal] for d in self.original.schema
                ],
                "attributes": list(self.attributes),
                "il_measures": [
                    self._component_signature(m, m.measure_name) for m in self.il_measures
                ],
                "dr_measures": [
                    self._component_signature(m, m.measure_name) for m in self.dr_measures
                ],
                "score": self._component_signature(
                    self.score_function, self.score_function.score_name
                ),
            }
            blob = json.dumps(payload, sort_keys=True).encode("utf-8")
            self._config_fingerprint = hashlib.sha256(blob).hexdigest()
        return self._config_fingerprint

    def _persistent_key(self, content_fingerprint: bytes) -> str:
        digest = hashlib.sha256(self.config_fingerprint().encode("ascii"))
        digest.update(content_fingerprint)
        return digest.hexdigest()

    def cache_key(self, masked: CategoricalDataset) -> str:
        """Persistent-cache key of one candidate under this configuration.

        Hashes the raw ``int64`` :meth:`~CategoricalDataset.fingerprint`,
        so keys written by earlier versions stay valid.
        """
        return self._persistent_key(masked.fingerprint())

    def evaluate(self, masked: CategoricalDataset) -> ProtectionScore:
        """Full score for ``masked`` (memoized by content): a batch of one."""
        return self.evaluate_many([masked])[0]

    def evaluate_many(
        self, batch: Sequence[CategoricalDataset], sources: list[str] | None = None
    ) -> list[ProtectionScore]:
        """Score a whole batch; identical to mapping :meth:`evaluate`.

        The batch pipeline, in order:

        1. check every candidate pairs with ``original`` (a memo hit
           must not skip that check), key it by its
           :meth:`~CategoricalDataset.delta_key` and deduplicate — each
           distinct content is scored once per batch (``batch_dedup``
           counts the duplicates saved);
        2. look the distinct candidates up in the in-memory memo;
        3. look the remainder up in the persistent cache *in bulk* (one
           ``get_many`` round instead of N ``get`` calls), hashing each
           one's :meth:`cache_key` once for the lookup and the store;
        4. run the fresh remainder through the measures' vectorized
           batch kernels, :data:`SCORE_CHUNK` candidates at a time —
           in-process, or split over ``executor`` first;
        5. store fresh scores back (bulk ``put_many``) and fan results
           out to the original batch positions.

        Counters are per *distinct* candidate: ``evaluations`` counts
        fresh scorings, ``cache_hits`` memo hits, ``persistent_hits``
        store hits.  Within-batch duplicates land in ``batch_dedup``
        instead of ``cache_hits`` (a scalar loop would have re-hit the
        memo for them).  A ``sources`` list is refilled with the counter
        each batch position was charged to: ``"memo"``, ``"persistent"``
        or ``"fresh"`` at a distinct candidate's first position,
        ``"dedup"`` at its later ones.
        """
        candidates = list(batch)
        if not candidates:
            return []
        # One clock pair instead of a context manager keeps the batch
        # body un-indented; 0.0 doubles as "no trace active".
        trace_started = time.perf_counter() if span_active() else 0.0
        registry = get_registry()
        self.batches += 1
        if len(candidates) > self.max_batch_size:
            self.max_batch_size = len(candidates)
        if registry.enabled:
            registry.observe("repro_eval_batch_size", len(candidates))
        original = self.original
        slots: dict[bytes, list[int]] = {}
        for position, masked in enumerate(candidates):
            require_masked_pair(original, masked)
            slots.setdefault(masked.delta_key(original), []).append(position)
        duplicates = len(candidates) - len(slots)
        self.batch_dedup += duplicates
        if registry.enabled and duplicates:
            registry.inc("repro_eval_dedup_total", duplicates)

        resolved: dict[bytes, ProtectionScore] = {}
        charged: dict[bytes, str] = {}
        missing: list[bytes] = []
        memo_hits = 0
        for key in slots:
            if self._cache_size:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    memo_hits += 1
                    resolved[key] = cached
                    charged[key] = "memo"
                    continue
            missing.append(key)
        self.cache_hits += memo_hits
        if registry.enabled and memo_hits:
            registry.inc("repro_eval_memo_hits_total", memo_hits)

        if self.persistent_cache is not None and missing:
            persistent_keys = {
                key: self.cache_key(candidates[slots[key][0]]) for key in missing
            }
            stored = _cache_get_many(
                self.persistent_cache, [persistent_keys[key] for key in missing]
            )
            still_missing = []
            persistent_hits = 0
            for key in missing:
                score = stored.get(persistent_keys[key])
                if score is not None:
                    persistent_hits += 1
                    self._memoize(key, score)
                    resolved[key] = score
                    charged[key] = "persistent"
                else:
                    still_missing.append(key)
            missing = still_missing
            self.persistent_hits += persistent_hits
            if registry.enabled and persistent_hits:
                registry.inc("repro_eval_persistent_hits_total", persistent_hits)

        if missing:
            fresh_candidates = [candidates[slots[key][0]] for key in missing]
            start = time.perf_counter()
            fresh_scores = self._evaluate_fresh(fresh_candidates)
            elapsed = time.perf_counter() - start
            self.fresh_seconds += elapsed
            self.evaluations += len(missing)
            if registry.enabled:
                registry.inc("repro_eval_fresh_total", len(missing))
                registry.observe("repro_eval_fresh_seconds", elapsed)
            if self.persistent_cache is not None:
                _cache_put_many(
                    self.persistent_cache,
                    [(persistent_keys[key], score) for key, score in zip(missing, fresh_scores)],
                )
            for key, score in zip(missing, fresh_scores):
                self._memoize(key, score)
                resolved[key] = score

        results: list[ProtectionScore | None] = [None] * len(candidates)
        if sources is not None:
            sources[:] = ["dedup"] * len(candidates)
        for key, positions in slots.items():
            score = resolved[key]
            for position in positions:
                results[position] = score
            if sources is not None:
                sources[positions[0]] = charged.get(key, "fresh")
        if trace_started:
            record_span("repro.eval.batch",
                        time.perf_counter() - trace_started,
                        size=len(candidates), fresh=len(missing))
        return results  # type: ignore[return-value]

    def _evaluate_fresh(self, candidates: list[CategoricalDataset]) -> list[ProtectionScore]:
        """Run fresh candidates through the batch kernels, maybe in parallel.

        Chunks the batch across the executor's workers by
        :func:`chunk_plan`; a chunk is the unit a worker vectorizes
        over, and chunk boundaries never change results (every batch
        kernel is candidate-independent).  A batch that makes one chunk,
        or an evaluator without an executor, scores in-process.
        """
        executor = self.executor
        plan = [(0, len(candidates))]
        if executor is not None:
            import os

            workers = getattr(executor, "max_workers", None) or os.cpu_count() or 1
            plan = chunk_plan(len(candidates), workers)
        if len(plan) <= 1:
            return _score_candidates(
                self.il_measures, self.dr_measures, self.score_function, candidates
            )
        payloads = [
            (self.il_measures, self.dr_measures, self.score_function, candidates[start:stop])
            for start, stop in plan
        ]
        scored = executor.map(_score_candidates_payload, payloads)
        return [score for chunk_scores in scored for score in chunk_scores]

    def _memoize(self, key: bytes, result: ProtectionScore) -> None:
        if not self._cache_size:
            return
        self._cache[key] = result
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def rescore(self, score: ProtectionScore) -> ProtectionScore:
        """Re-aggregate an existing evaluation under this evaluator's score function.

        Lets experiment code compare score functions without recomputing
        the expensive measures.
        """
        return ProtectionScore(
            information_loss=score.information_loss,
            disclosure_risk=score.disclosure_risk,
            score=self.score_function(score.information_loss, score.disclosure_risk),
            il_components=dict(score.il_components),
            dr_components=dict(score.dr_components),
        )

    def stats(self) -> dict[str, int]:
        """Evaluation-work snapshot over every :meth:`evaluate_many` call.

        ``evaluations`` counts fresh metric computations, ``memo_hits``
        in-memory cache hits, ``persistent_hits`` persistent-store hits
        — each per *distinct* candidate.  ``batch_dedup`` counts the
        within-batch duplicates collapsed before any cache was consulted
        (the memo hits a scalar loop would have recorded for them).
        ``batches`` / ``max_batch_size`` describe the batch-shape this
        evaluator saw (a scalar :meth:`evaluate` call is a batch of
        one), and ``fresh_seconds`` is wall time spent inside the metric
        kernels (the only nondeterministic value here — everything else
        is a pure function of the evaluation stream).
        """
        return {
            "evaluations": self.evaluations,
            "memo_hits": self.cache_hits,
            "persistent_hits": self.persistent_hits,
            "batch_dedup": self.batch_dedup,
            "batches": self.batches,
            "max_batch_size": self.max_batch_size,
            "fresh_seconds": round(self.fresh_seconds, 6),
        }

    def cache_info(self) -> dict[str, int]:
        """Cache statistics: size, capacity, hits, misses (= evaluations)."""
        return {
            "size": len(self._cache),
            "capacity": self._cache_size,
            "hits": self.cache_hits,
            "persistent_hits": self.persistent_hits,
            "misses": self.evaluations,
        }

    def __repr__(self) -> str:
        return (
            f"ProtectionEvaluator({self.original.name!r}, attributes={list(self.attributes)}, "
            f"score={self.score_function.score_name})"
        )
